#include "src/relational/codec.h"

namespace p2pdb::rel {

void EncodeValue(const Value& v, Writer* w) {
  w->PutU8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kInt:
      w->PutI64(v.AsInt());
      break;
    case ValueKind::kString:
      w->PutString(v.AsStr());
      break;
    case ValueKind::kNull:
      w->PutU64(v.null_id());
      break;
  }
}

Result<Value> DecodeValue(Reader* r) {
  auto tag = r->GetU8();
  if (!tag.ok()) return tag.status();
  switch (static_cast<ValueKind>(*tag)) {
    case ValueKind::kInt: {
      auto i = r->GetI64();
      if (!i.ok()) return i.status();
      return Value::Int(*i);
    }
    case ValueKind::kString: {
      auto s = r->GetStringView();
      if (!s.ok()) return s.status();
      return Value::Str(*s);
    }
    case ValueKind::kNull: {
      auto id = r->GetU64();
      if (!id.ok()) return id.status();
      return Value::Null(*id);
    }
  }
  return Status::ParseError("bad value tag");
}

void EncodeTuple(Row t, Writer* w) {
  w->PutVarint(t.arity());
  for (const Value& v : t) EncodeValue(v, w);
}

void EncodeTupleList(const RowList& rows, Writer* w) {
  w->PutVarint(rows.size());
  for (Row row : rows) EncodeTuple(row, w);
}

void EncodeTupleRange(const LogView& log, size_t from, Writer* w) {
  w->PutVarint(log.size() - from);
  for (size_t i = from; i < log.size(); ++i) EncodeTuple(log.at(i), w);
}

Result<RowList> DecodeTupleList(Reader* r) {
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  // Every tuple takes at least one byte (its arity).
  if (*n > r->remaining()) return Status::ParseError("tuple count past end");
  RowList out;
  for (uint64_t i = 0; i < *n; ++i) {
    auto arity = r->GetVarint();
    if (!arity.ok()) return arity.status();
    if (*arity > r->remaining()) {
      return Status::ParseError("tuple arity past end");
    }
    // Rows almost always share the first row's arity. Every value takes at
    // least one byte, so more values than bytes left cannot be genuine.
    if (i == 0 && *arity <= r->remaining() / *n) {
      out.Reserve(*n, *n * *arity);
    }
    for (uint64_t k = 0; k < *arity; ++k) {
      auto v = DecodeValue(r);
      if (!v.ok()) return v.status();
      out.AddValue(*v);
    }
    out.EndRow();
  }
  return out;
}

void EncodeDatabase(const Database& db, RowOrder order, Writer* w) {
  w->PutVarint(db.relations().size());
  for (const Relation& relation : db.relations()) {
    WriteFields(relation.schema(), w);
    if (order == RowOrder::kSorted) {
      EncodeTupleList(relation.SortedTuples(), w);
    } else {
      EncodeTupleRange(relation.View(), 0, w);
    }
  }
}

Result<Database> DecodeDatabase(Reader* r, RowOrder order, uint64_t* rows) {
  auto relation_count = r->GetVarint();
  if (!relation_count.ok()) return relation_count.status();
  Database db;
  for (uint64_t i = 0; i < *relation_count; ++i) {
    auto schema = ReadFields<RelationSchema>(r);
    if (!schema.ok()) return schema.status();
    P2PDB_ASSIGN_OR_RETURN(auto relation, db.CreateRelation(*schema));
    auto list = DecodeTupleList(r);
    if (!list.ok()) return list.status();
    for (size_t k = 0; k < list->size(); ++k) {
      if (order == RowOrder::kSorted && k > 0 &&
          !((*list)[k - 1] < (*list)[k])) {
        return Status::ParseError("unsorted relation " + schema->name());
      }
      P2PDB_RETURN_IF_ERROR(relation->Insert((*list)[k]).status());
    }
    if (rows != nullptr) *rows += list->size();
  }
  return db;
}

}  // namespace p2pdb::rel
