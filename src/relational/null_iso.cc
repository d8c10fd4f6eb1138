#include "src/relational/null_iso.h"

#include <map>
#include <vector>

namespace p2pdb::rel {

namespace {

// One relational fact as (relation name, row), flattened for matching.
// `row` views the relation's log, where entries never move.
struct Fact {
  const std::string* relation;
  Row row;
};

std::vector<Fact> Flatten(const Database& db, bool nulls_only) {
  std::vector<Fact> out;
  for (const Relation& relation : db.relations()) {
    const LogView log = relation.View();
    for (size_t i = 0; i < log.size(); ++i) {
      const Row row = log.at(i);
      if (!nulls_only || row.HasNull()) {
        out.push_back(Fact{&relation.name(), row});
      }
    }
  }
  return out;
}

// Tries to map fact `f` onto some fact of `candidates` consistently with
// `mapping` (injective when `injective`). Recursion over the facts of `a`.
bool MatchFacts(const std::vector<Fact>& a_facts, size_t index,
                const Database& b, std::map<uint64_t, Value>* mapping,
                std::map<Value, uint64_t>* reverse, bool injective) {
  if (index == a_facts.size()) return true;
  const Fact& f = a_facts[index];
  const RelationId id = b.Find(*f.relation);
  if (id == kNoRelation) return false;
  const LogView candidates = b.View(id);
  for (size_t c = 0; c < candidates.size(); ++c) {
    const Row candidate = candidates.at(c);
    if (candidate.arity() != f.row.arity()) continue;
    // Try to extend the mapping so f.row -> candidate.
    std::vector<uint64_t> added;
    std::vector<Value> added_rev;
    bool ok = true;
    for (size_t i = 0; i < f.row.arity(); ++i) {
      const Value& av = f.row.at(i);
      const Value& bv = candidate.at(i);
      if (!av.is_null()) {
        if (!(av == bv)) {
          ok = false;
          break;
        }
        continue;
      }
      auto it = mapping->find(av.null_id());
      if (it != mapping->end()) {
        if (!(it->second == bv)) {
          ok = false;
          break;
        }
        continue;
      }
      if (injective) {
        if (!bv.is_null() || reverse->count(bv)) {
          ok = false;
          break;
        }
        reverse->emplace(bv, av.null_id());
        added_rev.push_back(bv);
      }
      mapping->emplace(av.null_id(), bv);
      added.push_back(av.null_id());
    }
    if (ok && MatchFacts(a_facts, index + 1, b, mapping, reverse, injective)) {
      return true;
    }
    for (uint64_t id : added) mapping->erase(id);
    for (const Value& v : added_rev) reverse->erase(v);
  }
  return false;
}

bool NullFactsMapInto(const Database& a, const Database& b, bool injective) {
  std::vector<Fact> a_null_facts = Flatten(a, /*nulls_only=*/true);
  std::map<uint64_t, Value> mapping;
  std::map<Value, uint64_t> reverse;
  return MatchFacts(a_null_facts, 0, b, &mapping, &reverse, injective);
}

}  // namespace

bool DatabasesIsomorphic(const Database& a, const Database& b) {
  // Structural preconditions: same relations and cardinalities, identical
  // certain parts.
  if (!DatabasesCertainEqual(a, b)) return false;
  for (RelationId id = 0; id < a.relations().size(); ++id) {
    if (a.relation(id).size() != b.relation(id).size()) return false;
  }
  // Injective mapping in both directions suffices given equal cardinalities.
  return NullFactsMapInto(a, b, /*injective=*/true) &&
         NullFactsMapInto(b, a, /*injective=*/true);
}

bool DatabasesCertainEqual(const Database& a, const Database& b) {
  // Both tables are in name order, so equal ids must name equal relations.
  if (a.relations().size() != b.relations().size()) return false;
  for (RelationId id = 0; id < a.relations().size(); ++id) {
    if (a.relation(id).name() != b.relation(id).name() ||
        a.relation(id).CertainTuples() != b.relation(id).CertainTuples()) {
      return false;
    }
  }
  return true;
}

bool DatabaseHomomorphicallyContained(const Database& sub,
                                      const Database& sup) {
  for (const Relation& relation : sub.relations()) {
    const RelationId other = sup.Find(relation.name());
    if (other == kNoRelation) return false;
    // Certain tuples must be present verbatim.
    for (const Tuple& t : relation.CertainTuples()) {
      if (!sup.relation(other).Contains(t)) return false;
    }
  }
  std::vector<Fact> null_facts = Flatten(sub, /*nulls_only=*/true);
  std::map<uint64_t, Value> mapping;
  std::map<Value, uint64_t> reverse;
  return MatchFacts(null_facts, 0, sup, &mapping, &reverse,
                    /*injective=*/false);
}

}  // namespace p2pdb::rel
