// Relation schemas and node catalogs (the paper's DBS component).
#ifndef P2PDB_RELATIONAL_SCHEMA_H_
#define P2PDB_RELATIONAL_SCHEMA_H_

#include <string>
#include <vector>

#include "src/util/serde.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// Schema of one relation: a name plus named attributes. Attribute types are
/// dynamic (any Value); names exist for documentation and printing.
class RelationSchema {
 public:
  RelationSchema() = default;
  RelationSchema(std::string name, std::vector<std::string> attributes)
      : name_(std::move(name)), attributes_(std::move(attributes)) {}

  const std::string& name() const { return name_; }
  size_t arity() const { return attributes_.size(); }
  const std::vector<std::string>& attributes() const { return attributes_; }

  /// Index of an attribute by name, or NotFound.
  Result<size_t> AttributeIndex(const std::string& attr) const;

  /// "name(a, b, c)".
  std::string ToString() const;

  bool operator==(const RelationSchema& other) const {
    return name_ == other.name_ && attributes_ == other.attributes_;
  }

  /// The schema's format (util/serde.h), written in relational/codec.h.
  template <class IO>
  friend void Fields(IO& io, FieldRef<IO, RelationSchema> schema);

 private:
  std::string name_;
  std::vector<std::string> attributes_;
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_SCHEMA_H_
