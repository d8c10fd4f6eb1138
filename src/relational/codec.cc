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

void EncodeTuple(const Tuple& t, Writer* w) {
  w->PutVarint(t.arity());
  for (const Value& v : t.values()) EncodeValue(v, w);
}

Result<Tuple> DecodeTuple(Reader* r) {
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  // Every value takes at least one byte, so a larger arity cannot be genuine
  // (and must not reach reserve()).
  if (*n > r->remaining()) return Status::ParseError("tuple arity past end");
  std::vector<Value> values;
  values.reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    auto v = DecodeValue(r);
    if (!v.ok()) return v.status();
    values.push_back(*v);
  }
  return Tuple(std::move(values));
}

void EncodeTupleList(const std::vector<Tuple>& tuples, Writer* w) {
  w->PutVarint(tuples.size());
  for (const Tuple& t : tuples) EncodeTuple(t, w);
}

void EncodeTupleRange(const LogView& log, size_t from, Writer* w) {
  w->PutVarint(log.size() - from);
  for (size_t i = from; i < log.size(); ++i) EncodeTuple(log.at(i), w);
}

Result<std::vector<Tuple>> DecodeTupleList(Reader* r) {
  auto n = r->GetVarint();
  if (!n.ok()) return n.status();
  // Every tuple takes at least one byte (its arity).
  if (*n > r->remaining()) return Status::ParseError("tuple count past end");
  std::vector<Tuple> out;
  out.reserve(*n);
  for (uint64_t i = 0; i < *n; ++i) {
    auto t = DecodeTuple(r);
    if (!t.ok()) return t.status();
    out.push_back(t.MoveValue());
  }
  return out;
}

}  // namespace p2pdb::rel
