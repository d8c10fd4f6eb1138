#include "src/core/wire.h"

#include "src/relational/codec.h"

namespace p2pdb::core::wire {

namespace {

// Small helpers to keep payload Encode/Decode bodies uniform.

std::vector<uint8_t> Finish(Writer& w) { return w.TakeBytes(); }

#define WIRE_TRY(lhs, expr)          \
  auto lhs##_res = (expr);           \
  if (!lhs##_res.ok()) return lhs##_res.status(); \
  auto lhs = std::move(*lhs##_res)

}  // namespace


void EncodeTerm(const rel::Term& t, Writer* w) {
  w->PutU8(t.is_var() ? 0 : 1);
  if (t.is_var()) {
    w->PutString(t.var);
  } else {
    EncodeValue(t.constant, w);
  }
}

Result<rel::Term> DecodeTerm(Reader* r) {
  WIRE_TRY(tag, r->GetU8());
  if (tag == 0) {
    WIRE_TRY(name, r->GetString());
    return rel::Term::Var(std::move(name));
  }
  WIRE_TRY(v, DecodeValue(r));
  return rel::Term::Const(std::move(v));
}

void EncodeAtom(const rel::Atom& a, Writer* w) {
  w->PutString(a.relation);
  w->PutVarint(a.terms.size());
  for (const rel::Term& t : a.terms) EncodeTerm(t, w);
}

Result<rel::Atom> DecodeAtom(Reader* r) {
  rel::Atom out;
  WIRE_TRY(name, r->GetString());
  out.relation = std::move(name);
  WIRE_TRY(n, r->GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    WIRE_TRY(t, DecodeTerm(r));
    out.terms.push_back(std::move(t));
  }
  return out;
}

void EncodeBuiltin(const rel::Builtin& b, Writer* w) {
  w->PutU8(static_cast<uint8_t>(b.op));
  EncodeTerm(b.lhs, w);
  EncodeTerm(b.rhs, w);
}

Result<rel::Builtin> DecodeBuiltin(Reader* r) {
  rel::Builtin out;
  WIRE_TRY(op, r->GetU8());
  if (op > static_cast<uint8_t>(rel::BuiltinOp::kGe)) {
    return Status::ParseError("bad builtin op");
  }
  out.op = static_cast<rel::BuiltinOp>(op);
  WIRE_TRY(lhs, DecodeTerm(r));
  out.lhs = std::move(lhs);
  WIRE_TRY(rhs, DecodeTerm(r));
  out.rhs = std::move(rhs);
  return out;
}

void EncodeQuery(const rel::ConjunctiveQuery& q, Writer* w) {
  w->PutVarint(q.head_vars.size());
  for (const std::string& v : q.head_vars) w->PutString(v);
  w->PutVarint(q.atoms.size());
  for (const rel::Atom& a : q.atoms) EncodeAtom(a, w);
  w->PutVarint(q.builtins.size());
  for (const rel::Builtin& b : q.builtins) EncodeBuiltin(b, w);
}

Result<rel::ConjunctiveQuery> DecodeQuery(Reader* r) {
  rel::ConjunctiveQuery out;
  WIRE_TRY(nv, r->GetVarint());
  for (uint64_t i = 0; i < nv; ++i) {
    WIRE_TRY(v, r->GetString());
    out.head_vars.push_back(std::move(v));
  }
  WIRE_TRY(na, r->GetVarint());
  for (uint64_t i = 0; i < na; ++i) {
    WIRE_TRY(a, DecodeAtom(r));
    out.atoms.push_back(std::move(a));
  }
  WIRE_TRY(nb, r->GetVarint());
  for (uint64_t i = 0; i < nb; ++i) {
    WIRE_TRY(b, DecodeBuiltin(r));
    out.builtins.push_back(std::move(b));
  }
  return out;
}

void EncodeRule(const CoordinationRule& rule, Writer* w) {
  w->PutString(rule.id);
  w->PutU32(rule.head_node);
  w->PutVarint(rule.head_atoms.size());
  for (const rel::Atom& a : rule.head_atoms) EncodeAtom(a, w);
  w->PutVarint(rule.body.size());
  for (const CoordinationRule::BodyPart& p : rule.body) {
    w->PutU32(p.node);
    w->PutVarint(p.atoms.size());
    for (const rel::Atom& a : p.atoms) EncodeAtom(a, w);
    w->PutVarint(p.builtins.size());
    for (const rel::Builtin& b : p.builtins) EncodeBuiltin(b, w);
  }
  w->PutVarint(rule.cross_builtins.size());
  for (const rel::Builtin& b : rule.cross_builtins) EncodeBuiltin(b, w);
  rule.domain_map.Encode(w);
}

Result<CoordinationRule> DecodeRule(Reader* r) {
  CoordinationRule out;
  WIRE_TRY(id, r->GetString());
  out.id = std::move(id);
  WIRE_TRY(head, r->GetU32());
  out.head_node = head;
  WIRE_TRY(nh, r->GetVarint());
  for (uint64_t i = 0; i < nh; ++i) {
    WIRE_TRY(a, DecodeAtom(r));
    out.head_atoms.push_back(std::move(a));
  }
  WIRE_TRY(np, r->GetVarint());
  for (uint64_t i = 0; i < np; ++i) {
    CoordinationRule::BodyPart part;
    WIRE_TRY(node, r->GetU32());
    part.node = node;
    WIRE_TRY(na, r->GetVarint());
    for (uint64_t j = 0; j < na; ++j) {
      WIRE_TRY(a, DecodeAtom(r));
      part.atoms.push_back(std::move(a));
    }
    WIRE_TRY(nb, r->GetVarint());
    for (uint64_t j = 0; j < nb; ++j) {
      WIRE_TRY(b, DecodeBuiltin(r));
      part.builtins.push_back(std::move(b));
    }
    out.body.push_back(std::move(part));
  }
  WIRE_TRY(nc, r->GetVarint());
  for (uint64_t i = 0; i < nc; ++i) {
    WIRE_TRY(b, DecodeBuiltin(r));
    out.cross_builtins.push_back(std::move(b));
  }
  WIRE_TRY(map, DomainMap::Decode(r));
  out.domain_map = std::move(map);
  return out;
}

void EncodeEdges(const std::set<Edge>& edges, Writer* w) {
  w->PutVarint(edges.size());
  for (const Edge& e : edges) {
    w->PutU32(e.first);
    w->PutU32(e.second);
  }
}

Result<std::set<Edge>> DecodeEdges(Reader* r) {
  WIRE_TRY(n, r->GetVarint());
  std::set<Edge> out;
  for (uint64_t i = 0; i < n; ++i) {
    WIRE_TRY(from, r->GetU32());
    WIRE_TRY(to, r->GetU32());
    out.insert({from, to});
  }
  return out;
}

// --- Payloads ----------------------------------------------------------------

std::vector<uint8_t> DiscoverRequest::Encode() const {
  Writer w;
  w.PutU32(origin);
  return Finish(w);
}

Result<DiscoverRequest> DiscoverRequest::Decode(ByteView bytes) {
  Reader r(bytes);
  DiscoverRequest out;
  WIRE_TRY(origin, r.GetU32());
  out.origin = origin;
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> DiscoverAnswer::Encode() const {
  Writer w;
  w.PutU32(origin);
  w.PutU8(visited ? 1 : 0);
  EncodeEdges(edges, &w);
  return Finish(w);
}

Result<DiscoverAnswer> DiscoverAnswer::Decode(ByteView bytes) {
  Reader r(bytes);
  DiscoverAnswer out;
  WIRE_TRY(origin, r.GetU32());
  out.origin = origin;
  WIRE_TRY(visited, r.GetU8());
  out.visited = visited != 0;
  WIRE_TRY(edges, DecodeEdges(&r));
  out.edges = std::move(edges);
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> DiscoverClosure::Encode() const {
  Writer w;
  w.PutU32(origin);
  EncodeEdges(edges, &w);
  return Finish(w);
}

Result<DiscoverClosure> DiscoverClosure::Decode(ByteView bytes) {
  Reader r(bytes);
  DiscoverClosure out;
  WIRE_TRY(origin, r.GetU32());
  out.origin = origin;
  WIRE_TRY(edges, DecodeEdges(&r));
  out.edges = std::move(edges);
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> UpdateStart::Encode() const {
  Writer w;
  w.PutU64(session);
  return Finish(w);
}

Result<UpdateStart> UpdateStart::Decode(ByteView bytes) {
  Reader r(bytes);
  UpdateStart out;
  WIRE_TRY(session, r.GetU64());
  out.session = session;
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> QueryRequest::Encode() const {
  Writer w;
  w.PutU64(session);
  w.PutString(rule_id);
  w.PutU32(part);
  EncodeQuery(query, &w);
  return Finish(w);
}

Result<QueryRequest> QueryRequest::Decode(ByteView bytes) {
  Reader r(bytes);
  QueryRequest out;
  WIRE_TRY(session, r.GetU64());
  out.session = session;
  WIRE_TRY(rule_id, r.GetString());
  out.rule_id = std::move(rule_id);
  WIRE_TRY(part, r.GetU32());
  out.part = part;
  WIRE_TRY(query, DecodeQuery(&r));
  out.query = std::move(query);
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

namespace {
void EncodeAnswerHeader(const QueryAnswer& answer, Writer* w) {
  w->PutU64(answer.session);
  w->PutString(answer.rule_id);
  w->PutU32(answer.part);
  w->PutU8(answer.is_delta ? 1 : 0);
  w->PutU8(answer.source_closed ? 1 : 0);
}
}  // namespace

std::vector<uint8_t> QueryAnswer::Encode() const {
  Writer w;
  EncodeAnswerHeader(*this, &w);
  EncodeTupleList(tuples, &w);
  return Finish(w);
}

std::vector<uint8_t> QueryAnswer::EncodeFromLog(const rel::LogView& log,
                                                size_t from) const {
  Writer w;
  EncodeAnswerHeader(*this, &w);
  rel::EncodeTupleRange(log, from, &w);
  return Finish(w);
}

Result<QueryAnswer> QueryAnswer::Decode(ByteView bytes) {
  Reader r(bytes);
  QueryAnswer out;
  WIRE_TRY(session, r.GetU64());
  out.session = session;
  WIRE_TRY(rule_id, r.GetString());
  out.rule_id = std::move(rule_id);
  WIRE_TRY(part, r.GetU32());
  out.part = part;
  WIRE_TRY(is_delta, r.GetU8());
  out.is_delta = is_delta != 0;
  WIRE_TRY(closed, r.GetU8());
  out.source_closed = closed != 0;
  WIRE_TRY(tuples, DecodeTupleList(&r));
  out.tuples = std::move(tuples);
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> Unsubscribe::Encode() const {
  Writer w;
  w.PutU64(session);
  w.PutString(rule_id);
  w.PutU32(part);
  return Finish(w);
}

Result<Unsubscribe> Unsubscribe::Decode(ByteView bytes) {
  Reader r(bytes);
  Unsubscribe out;
  WIRE_TRY(session, r.GetU64());
  out.session = session;
  WIRE_TRY(rule_id, r.GetString());
  out.rule_id = std::move(rule_id);
  WIRE_TRY(part, r.GetU32());
  out.part = part;
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> PartialUpdate::Encode() const {
  Writer w;
  w.PutU64(session);
  w.PutVarint(relations.size());
  for (const std::string& rel_name : relations) w.PutString(rel_name);
  w.PutVarint(sn_path.size());
  for (NodeId n : sn_path) w.PutU32(n);
  return Finish(w);
}

Result<PartialUpdate> PartialUpdate::Decode(ByteView bytes) {
  Reader r(bytes);
  PartialUpdate out;
  WIRE_TRY(session, r.GetU64());
  out.session = session;
  WIRE_TRY(nr, r.GetVarint());
  for (uint64_t i = 0; i < nr; ++i) {
    WIRE_TRY(name, r.GetString());
    out.relations.insert(std::move(name));
  }
  WIRE_TRY(np, r.GetVarint());
  for (uint64_t i = 0; i < np; ++i) {
    WIRE_TRY(n, r.GetU32());
    out.sn_path.push_back(n);
  }
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> Token::Encode() const {
  Writer w;
  w.PutU64(session);
  w.PutU32(leader);
  w.PutU64(pass);
  w.PutU64(sum_sent);
  w.PutU64(sum_recv);
  w.PutU8(all_ready ? 1 : 0);
  return Finish(w);
}

Result<Token> Token::Decode(ByteView bytes) {
  Reader r(bytes);
  Token out;
  WIRE_TRY(session, r.GetU64());
  out.session = session;
  WIRE_TRY(leader, r.GetU32());
  out.leader = leader;
  WIRE_TRY(pass, r.GetU64());
  out.pass = pass;
  WIRE_TRY(sum_sent, r.GetU64());
  out.sum_sent = sum_sent;
  WIRE_TRY(sum_recv, r.GetU64());
  out.sum_recv = sum_recv;
  WIRE_TRY(ready, r.GetU8());
  out.all_ready = ready != 0;
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> SccClosed::Encode() const {
  Writer w;
  w.PutU64(session);
  return Finish(w);
}

Result<SccClosed> SccClosed::Decode(ByteView bytes) {
  Reader r(bytes);
  SccClosed out;
  WIRE_TRY(session, r.GetU64());
  out.session = session;
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> Reopen::Encode() const {
  Writer w;
  w.PutU64(session);
  return Finish(w);
}

Result<Reopen> Reopen::Decode(ByteView bytes) {
  Reader r(bytes);
  Reopen out;
  WIRE_TRY(session, r.GetU64());
  out.session = session;
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> AddRuleChange::Encode() const {
  Writer w;
  EncodeRule(rule, &w);
  return Finish(w);
}

Result<AddRuleChange> AddRuleChange::Decode(ByteView bytes) {
  Reader r(bytes);
  AddRuleChange out;
  WIRE_TRY(rule, DecodeRule(&r));
  out.rule = std::move(rule);
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> DeleteRuleChange::Encode() const {
  Writer w;
  w.PutString(rule_id);
  return Finish(w);
}

Result<DeleteRuleChange> DeleteRuleChange::Decode(ByteView bytes) {
  Reader r(bytes);
  DeleteRuleChange out;
  WIRE_TRY(rule_id, r.GetString());
  out.rule_id = std::move(rule_id);
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
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
  Writer w;
  w.PutU8(static_cast<uint8_t>(kind));
  if (kind == Kind::kAdd) {
    EncodeRule(rule, &w);
  } else {
    w.PutString(rule_id);
  }
  return Finish(w);
}

Result<RuleChangeRecord> RuleChangeRecord::Decode(ByteView bytes) {
  Reader r(bytes);
  RuleChangeRecord out;
  WIRE_TRY(kind, r.GetU8());
  if (kind == static_cast<uint8_t>(Kind::kAdd)) {
    out.kind = Kind::kAdd;
    WIRE_TRY(rule, DecodeRule(&r));
    out.rule = std::move(rule);
  } else if (kind == static_cast<uint8_t>(Kind::kDelete)) {
    out.kind = Kind::kDelete;
    WIRE_TRY(rule_id, r.GetString());
    out.rule_id = std::move(rule_id);
  } else {
    return Status::ParseError("unknown rule-change kind " +
                              std::to_string(kind));
  }
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

}  // namespace p2pdb::core::wire
