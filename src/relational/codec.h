// Binary codecs for values, tuples, relation schemas and database images,
// shared by the wire format (core/wire, core/control), database snapshots
// (relational/snapshot) and the write-ahead log (storage/storage_manager).
//
// Values and tuple lists are hand-written codecs on the hot path: decoding
// interns strings straight from the buffer. A schema is a field list
// (util/serde.h).
//
// A string constant is encoded as its length and bytes, never as its
// dictionary id (value.h): ids are private to one process. Decoding interns
// the string straight from the buffer.
//
// A tuple sequence is encoded as a count and then the tuples, each its arity
// and its values. Snapshots write each relation's tuples sorted and without
// repeats, so their bytes do not depend on arrival order. Subscription
// answers and WAL records carry tuple lists in the writer's log order: WAL
// records and answers of a subscription that keeps a shipped-answer log are
// encoded straight from a log range, other answers from the rows just
// derived. Every list decodes into one RowList (tuple.h), a flat value
// buffer: the receiver checks each row's arity before it uses any, and no
// decoded row is a heap object of its own.
#ifndef P2PDB_RELATIONAL_CODEC_H_
#define P2PDB_RELATIONAL_CODEC_H_

#include <vector>

#include "src/relational/database.h"
#include "src/relational/schema.h"
#include "src/relational/tuple.h"
#include "src/relational/tuple_log.h"
#include "src/util/serde.h"
#include "src/util/status.h"

namespace p2pdb::rel {

void EncodeValue(const Value& v, Writer* w);
Result<Value> DecodeValue(Reader* r);

void EncodeTuple(Row t, Writer* w);

/// A count, then the rows in the given order, repeats included.
void EncodeTupleList(const RowList& rows, Writer* w);
/// EncodeTupleList of entries [from, log.size()) of `log`, without copying
/// them into a list first.
void EncodeTupleRange(const LogView& log, size_t from, Writer* w);
/// The whole list or an error; rows may differ in arity. A count or an arity
/// larger than the bytes left cannot be genuine and is rejected before
/// anything is sized by it.
Result<RowList> DecodeTupleList(Reader* r);

/// The order of each tuple list in a database image.
enum class RowOrder { kLog, kSorted };

/// Writes `db` as a database image: the relation count, then each relation's
/// schema and tuple list, sorted without repeats (kSorted: snapshots) or in
/// log order (kLog: the WAL's base record).
void EncodeDatabase(const Database& db, RowOrder order, Writer* w);
/// Reads one database image into a fresh database, each relation's rows in
/// list order, leaving `r` after it. Under kSorted a list that is not
/// strictly increasing is rejected. Adds the rows read to `*rows` if given.
Result<Database> DecodeDatabase(Reader* r, RowOrder order,
                                uint64_t* rows = nullptr);

/// A relation schema: its name, then its attribute names.
template <class IO>
void Fields(IO& io, FieldRef<IO, RelationSchema> schema) {
  io.Str(schema.name_);
  io.Each(schema.attributes_, [&io](auto& attribute) { io.Str(attribute); });
}

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_CODEC_H_
