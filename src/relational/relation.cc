#include "src/relational/relation.h"

#include "src/util/string_util.h"

namespace p2pdb::rel {

Relation::Relation(RelationSchema schema)
    : schema_(std::move(schema)),
      log_(std::make_shared<TupleLog>(schema_.arity())) {}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      tuples_(other.tuples_),
      log_(std::make_shared<TupleLog>(schema_.arity())) {
  const LogView source = other.View();
  for (size_t i = 0; i < source.size(); ++i) log_->Append(source.at(i));
}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) *this = Relation(other);
  return *this;
}

Result<bool> Relation::Insert(Tuple tuple) {
  if (tuple.arity() != schema_.arity()) {
    return Status::InvalidArgument(
        StrFormat("arity mismatch inserting into %s: got %zu, want %zu",
                  schema_.name().c_str(), tuple.arity(), schema_.arity()));
  }
  if (!log_->Append(tuple)) return false;
  tuples_.insert(std::move(tuple));
  return true;
}

std::set<Tuple> Relation::CertainTuples() const {
  std::set<Tuple> out;
  for (const Tuple& t : tuples_) {
    if (!t.HasNull()) out.insert(t);
  }
  return out;
}

std::string Relation::ToString() const {
  std::string out = schema_.ToString() + " {" +
                    std::to_string(tuples_.size()) + " tuples}\n";
  for (const Tuple& t : tuples_) {
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

}  // namespace p2pdb::rel
