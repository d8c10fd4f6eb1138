// Binary codecs for values and tuples, shared by the wire format (core/wire)
// and database snapshots (relational/snapshot).
#ifndef P2PDB_RELATIONAL_CODEC_H_
#define P2PDB_RELATIONAL_CODEC_H_

#include <set>
#include <vector>

#include "src/relational/tuple.h"
#include "src/util/serde.h"
#include "src/util/status.h"

namespace p2pdb::rel {

void EncodeValue(const Value& v, Writer* w);
Result<Value> DecodeValue(Reader* r);

void EncodeTuple(const Tuple& t, Writer* w);
Result<Tuple> DecodeTuple(Reader* r);

/// A count, then the tuples in the given order. Callers pass sorted,
/// duplicate-free tuples, so equal sets encode to equal bytes.
void EncodeTupleSet(const std::set<Tuple>& tuples, Writer* w);
void EncodeTupleSet(const std::vector<Tuple>& sorted, Writer* w);
Result<std::set<Tuple>> DecodeTupleSet(Reader* r);

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_CODEC_H_
