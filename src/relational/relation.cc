#include "src/relational/relation.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace p2pdb::rel {

Relation::Relation(RelationSchema schema)
    : schema_(std::move(schema)),
      log_(std::make_unique<TupleLog>(schema_.arity())) {}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      log_(std::make_unique<TupleLog>(schema_.arity())) {
  const LogView source = other.View();
  for (size_t i = 0; i < source.size(); ++i) log_->Append(source.at(i));
}

Result<bool> Relation::Insert(Row row) {
  if (row.arity() != schema_.arity()) {
    return Status::InvalidArgument(
        StrFormat("arity mismatch inserting into %s: got %zu, want %zu",
                  schema_.name().c_str(), row.arity(), schema_.arity()));
  }
  return log_->Append(row);
}

std::vector<Tuple> Relation::SortedTuples() const {
  const LogView view = View();
  std::vector<Tuple> out;
  out.reserve(view.size());
  for (size_t i = 0; i < view.size(); ++i) out.emplace_back(view.at(i));
  std::sort(out.begin(), out.end());
  return out;
}

std::set<Tuple> Relation::CertainTuples() const {
  const LogView view = View();
  std::set<Tuple> out;
  for (size_t i = 0; i < view.size(); ++i) {
    if (!view.at(i).HasNull()) out.emplace(view.at(i));
  }
  return out;
}

std::string Relation::ToString() const {
  std::string out =
      schema_.ToString() + " {" + std::to_string(size()) + " tuples}\n";
  for (const Tuple& t : SortedTuples()) {
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

}  // namespace p2pdb::rel
