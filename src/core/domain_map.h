// Domain relations — the paper's declared future work ("Other approaches
// consider domain relations to map objects between different nodes [Serafini
// et al., 2003], and we plan to consider such extensions in future work").
//
// A DomainMap translates constants when data crosses a coordination rule:
// instead of assuming equal constants denote equal objects (the URI
// assumption of Section 2), a rule can carry an explicit value mapping that
// is applied to every body answer before the head join. Unmapped values pass
// through unchanged; labeled nulls are never remapped.
#ifndef P2PDB_CORE_DOMAIN_MAP_H_
#define P2PDB_CORE_DOMAIN_MAP_H_

#include <map>
#include <set>
#include <string>

#include "src/relational/codec.h"
#include "src/relational/tuple.h"
#include "src/util/serde.h"

namespace p2pdb::core {

/// A partial function over constants, applied tuple-wise to rule answers.
class DomainMap {
 public:
  /// Registers source -> target; replaces an existing entry for `source`.
  void Add(rel::Value source, rel::Value target);

  bool empty() const { return mapping_.empty(); }
  size_t size() const { return mapping_.size(); }

  /// Maps a single value (identity for unmapped values and labeled nulls).
  rel::Value Apply(const rel::Value& v) const;

  /// Maps every component of a tuple.
  rel::Tuple ApplyToTuple(const rel::Tuple& t) const;

  /// Maps every tuple of a set (the set may shrink if images collide).
  std::set<rel::Tuple> ApplyToSet(const std::set<rel::Tuple>& tuples) const;

  /// Composes: (other ∘ this)(v) = other.Apply(this->Apply(v)).
  DomainMap ComposeWith(const DomainMap& other) const;

  std::string ToString() const;

  bool operator==(const DomainMap& other) const {
    return mapping_ == other.mapping_;
  }

  /// The map's format (util/serde.h): a count, then each source and its
  /// target, in source order. A repeated source keeps its last target.
  template <class IO>
  friend void Fields(IO& io, FieldRef<IO, DomainMap> map) {
    io.Each(map.mapping_, [&io](auto& entry) {
      io.Use(entry.first, rel::EncodeValue, rel::DecodeValue);
      io.Use(entry.second, rel::EncodeValue, rel::DecodeValue);
    });
  }

 private:
  std::map<rel::Value, rel::Value> mapping_;
};

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_DOMAIN_MAP_H_
