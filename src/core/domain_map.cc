#include "src/core/domain_map.h"

namespace p2pdb::core {

void DomainMap::Add(rel::Value source, rel::Value target) {
  mapping_[std::move(source)] = std::move(target);
}

rel::Value DomainMap::Apply(const rel::Value& v) const {
  if (v.is_null()) return v;  // Null identity is node-scoped; never remapped.
  auto it = mapping_.find(v);
  return it == mapping_.end() ? v : it->second;
}

rel::Tuple DomainMap::ApplyToTuple(const rel::Tuple& t) const {
  std::vector<rel::Value> out;
  out.reserve(t.arity());
  for (const rel::Value& v : t.values()) out.push_back(Apply(v));
  return rel::Tuple(std::move(out));
}

std::set<rel::Tuple> DomainMap::ApplyToSet(
    const std::set<rel::Tuple>& tuples) const {
  if (mapping_.empty()) return tuples;
  std::set<rel::Tuple> out;
  for (const rel::Tuple& t : tuples) out.insert(ApplyToTuple(t));
  return out;
}

DomainMap DomainMap::ComposeWith(const DomainMap& other) const {
  DomainMap out;
  for (const auto& [source, target] : mapping_) {
    out.Add(source, other.Apply(target));
  }
  // Entries of `other` not shadowed by this map still apply.
  for (const auto& [source, target] : other.mapping_) {
    if (!mapping_.count(source)) out.Add(source, target);
  }
  return out;
}

std::string DomainMap::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [source, target] : mapping_) {
    if (!first) out += ", ";
    out += source.ToString() + " -> " + target.ToString();
    first = false;
  }
  return out + "}";
}

}  // namespace p2pdb::core
