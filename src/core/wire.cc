#include "src/core/wire.h"

namespace p2pdb::core::wire {

// --- Field lists ---------------------------------------------------------
//
// In namespace wire, not an anonymous one: EncodeFields and DecodeFields
// (util/serde.h) find a payload's list by argument-dependent lookup.

template <class IO>
void Fields(IO& io, FieldRef<IO, std::set<Edge>> edges) {
  io.Each(edges, [&io](auto& edge) {
    io.U32(edge.first);
    io.U32(edge.second);
  });
}

template <class IO>
void Fields(IO& io, FieldRef<IO, rel::ConjunctiveQuery> q) {
  io.Each(q.head_vars, [&io](auto& v) { io.Str(v); });
  io.Each(q.atoms, [&io](auto& a) { Fields(io, a); });
  io.Each(q.builtins, [&io](auto& b) { Fields(io, b); });
}

template <class IO>
void Fields(IO& io, FieldRef<IO, DiscoverRequest> x) { io.U32(x.origin); }

template <class IO>
void Fields(IO& io, FieldRef<IO, DiscoverAnswer> x) {
  io.U32(x.origin);
  io.Bool(x.visited);
  Fields(io, x.edges);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, DiscoverClosure> x) {
  io.U32(x.origin);
  Fields(io, x.edges);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, UpdateStart> x) { io.U64(x.session); }

template <class IO>
void Fields(IO& io, FieldRef<IO, QueryRequest> x) {
  io.Str(x.rule_id);
  io.U32(x.part);
  Fields(io, x.query);
}

/// Everything before the tuples, which EncodeFromLog writes from a log.
template <class IO>
void AnswerHeaderFields(IO& io, FieldRef<IO, QueryAnswer> x) {
  io.Str(x.rule_id);
  io.U32(x.part);
  io.Bool(x.is_delta);
  io.Bool(x.source_closed);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, QueryAnswer> x) {
  AnswerHeaderFields(io, x);
  io.Use(x.tuples, rel::EncodeTupleList, rel::DecodeTupleList);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, Unsubscribe> x) {
  io.Str(x.rule_id);
  io.U32(x.part);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, PartialUpdate> x) {
  io.U64(x.session);
  io.Each(x.relations, [&io](auto& name) { io.Str(name); });
  io.Each(x.sn_path, [&io](auto& node) { io.U32(node); });
}

template <class IO>
void Fields(IO& io, FieldRef<IO, Token> x) {
  io.U32(x.leader);
  io.U64(x.sum_sent);
  io.U64(x.sum_recv);
  io.Bool(x.all_ready);
}

template <class IO>
void Fields(IO&, FieldRef<IO, Empty>) {}

template <class IO>
void Fields(IO& io, FieldRef<IO, AddRuleChange> x) { Fields(io, x.rule); }

template <class IO>
void Fields(IO& io, FieldRef<IO, DeleteRuleChange> x) { io.Str(x.rule_id); }

/// The kind byte, then the rule (kAdd) or its id (kDelete).
template <class IO>
void Fields(IO& io, FieldRef<IO, RuleChangeRecord> x) {
  using Kind = RuleChangeRecord::Kind;
  io.Enum(x.kind, Kind::kDelete, "rule-change kind");
  io.Check(x.kind != Kind{0}, "unknown rule-change kind 0");
  if (x.kind == Kind::kAdd) {
    Fields(io, x.rule);
  } else {
    io.Str(x.rule_id);
  }
}

// --- Payload entry points ------------------------------------------------

std::vector<uint8_t> DiscoverRequest::Encode() const {
  return EncodeFields(*this);
}
Result<DiscoverRequest> DiscoverRequest::Decode(ByteView bytes) {
  return DecodeFields<DiscoverRequest>(bytes);
}

std::vector<uint8_t> DiscoverAnswer::Encode() const {
  return EncodeFields(*this);
}
Result<DiscoverAnswer> DiscoverAnswer::Decode(ByteView bytes) {
  return DecodeFields<DiscoverAnswer>(bytes);
}

std::vector<uint8_t> DiscoverClosure::Encode() const {
  return EncodeFields(*this);
}
Result<DiscoverClosure> DiscoverClosure::Decode(ByteView bytes) {
  return DecodeFields<DiscoverClosure>(bytes);
}

std::vector<uint8_t> UpdateStart::Encode() const { return EncodeFields(*this); }
Result<UpdateStart> UpdateStart::Decode(ByteView bytes) {
  return DecodeFields<UpdateStart>(bytes);
}

std::vector<uint8_t> QueryRequest::Encode() const {
  return EncodeFields(*this);
}
Result<QueryRequest> QueryRequest::Decode(ByteView bytes) {
  return DecodeFields<QueryRequest>(bytes);
}

std::vector<uint8_t> QueryAnswer::Encode() const { return EncodeFields(*this); }
std::vector<uint8_t> QueryAnswer::EncodeFromLog(const rel::LogView& log,
                                                size_t from) const {
  Writer w;
  Encoder<Writer> out(&w);
  AnswerHeaderFields(out, *this);
  rel::EncodeTupleRange(log, from, &w);
  return w.TakeBytes();
}
Result<QueryAnswer> QueryAnswer::Decode(ByteView bytes) {
  return DecodeFields<QueryAnswer>(bytes);
}

std::vector<uint8_t> Unsubscribe::Encode() const { return EncodeFields(*this); }
Result<Unsubscribe> Unsubscribe::Decode(ByteView bytes) {
  return DecodeFields<Unsubscribe>(bytes);
}

std::vector<uint8_t> PartialUpdate::Encode() const {
  return EncodeFields(*this);
}
Result<PartialUpdate> PartialUpdate::Decode(ByteView bytes) {
  return DecodeFields<PartialUpdate>(bytes);
}

std::vector<uint8_t> Token::Encode() const { return EncodeFields(*this); }
Result<Token> Token::Decode(ByteView bytes) {
  return DecodeFields<Token>(bytes);
}

std::vector<uint8_t> Empty::Encode() const { return EncodeFields(*this); }
Result<Empty> Empty::Decode(ByteView bytes) {
  return DecodeFields<Empty>(bytes);
}

std::vector<uint8_t> AddRuleChange::Encode() const {
  return EncodeFields(*this);
}
Result<AddRuleChange> AddRuleChange::Decode(ByteView bytes) {
  return DecodeFields<AddRuleChange>(bytes);
}

std::vector<uint8_t> DeleteRuleChange::Encode() const {
  return EncodeFields(*this);
}
Result<DeleteRuleChange> DeleteRuleChange::Decode(ByteView bytes) {
  return DecodeFields<DeleteRuleChange>(bytes);
}

RuleChangeRecord RuleChangeRecord::Add(CoordinationRule rule) {
  RuleChangeRecord out;
  out.kind = Kind::kAdd;
  out.rule = std::move(rule);
  return out;
}

RuleChangeRecord RuleChangeRecord::Delete(std::string rule_id) {
  RuleChangeRecord out;
  out.kind = Kind::kDelete;
  out.rule_id = std::move(rule_id);
  return out;
}

std::vector<uint8_t> RuleChangeRecord::Encode() const {
  return EncodeFields(*this);
}
Result<RuleChangeRecord> RuleChangeRecord::Decode(ByteView bytes) {
  return DecodeFields<RuleChangeRecord>(bytes);
}

}  // namespace p2pdb::core::wire
