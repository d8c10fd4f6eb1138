#include "src/core/control.h"

namespace p2pdb::core::wire {

namespace {

#define WIRE_TRY(lhs, expr)          \
  auto lhs##_res = (expr);           \
  if (!lhs##_res.ok()) return lhs##_res.status(); \
  auto lhs = std::move(*lhs##_res)

void EncodeSchema(const rel::RelationSchema& schema, Writer* w) {
  w->PutString(schema.name());
  w->PutVarint(schema.attributes().size());
  for (const std::string& attr : schema.attributes()) w->PutString(attr);
}

Result<rel::RelationSchema> DecodeSchema(Reader* r) {
  WIRE_TRY(name, r->GetString());
  WIRE_TRY(n, r->GetVarint());
  std::vector<std::string> attrs;
  for (uint64_t i = 0; i < n; ++i) {
    WIRE_TRY(attr, r->GetString());
    attrs.push_back(std::move(attr));
  }
  return rel::RelationSchema(std::move(name), std::move(attrs));
}

void EncodeEndpointEntry(const EndpointEntry& e, Writer* w) {
  w->PutU32(e.node);
  w->PutString(e.host);
  w->PutVarint(e.port);
}

Result<EndpointEntry> DecodeEndpointEntry(Reader* r) {
  EndpointEntry out;
  WIRE_TRY(node, r->GetU32());
  out.node = node;
  WIRE_TRY(host, r->GetString());
  out.host = std::move(host);
  WIRE_TRY(port, r->GetVarint());
  if (port > 65535) {
    return Status::ParseError("endpoint port out of range");
  }
  out.port = static_cast<uint16_t>(port);
  return out;
}

/// Shared by the epoch-only control payloads (start/refresh/dump/shutdown).
std::vector<uint8_t> EncodeEpochOnly(uint64_t epoch) {
  Writer w;
  w.PutVarint(epoch);
  return w.TakeBytes();
}

Result<uint64_t> DecodeEpochOnly(ByteView bytes) {
  Reader r(bytes);
  WIRE_TRY(epoch, r.GetVarint());
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return epoch;
}

}  // namespace

std::vector<uint8_t> SessionBootstrap::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutU32(node);
  w.PutString(name);
  w.PutU32(super_peer);
  w.PutVarint(schema.size());
  for (const rel::RelationSchema& s : schema) EncodeSchema(s, &w);
  w.PutVarint(rules.size());
  for (const CoordinationRule& rule : rules) EncodeRule(rule, &w);
  w.PutVarint(endpoints.size());
  for (const EndpointEntry& e : endpoints) EncodeEndpointEntry(e, &w);
  return w.TakeBytes();
}

Result<SessionBootstrap> SessionBootstrap::Decode(ByteView bytes) {
  Reader r(bytes);
  SessionBootstrap out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(node, r.GetU32());
  out.node = node;
  WIRE_TRY(name, r.GetString());
  out.name = std::move(name);
  WIRE_TRY(super_peer, r.GetU32());
  out.super_peer = super_peer;
  WIRE_TRY(ns, r.GetVarint());
  for (uint64_t i = 0; i < ns; ++i) {
    WIRE_TRY(s, DecodeSchema(&r));
    out.schema.push_back(std::move(s));
  }
  WIRE_TRY(nr, r.GetVarint());
  for (uint64_t i = 0; i < nr; ++i) {
    WIRE_TRY(rule, DecodeRule(&r));
    if (rule.head_node != out.node) {
      return Status::ParseError("bootstrap rule " + rule.id +
                                " is not headed at the bootstrapped node");
    }
    out.rules.push_back(std::move(rule));
  }
  WIRE_TRY(ne, r.GetVarint());
  for (uint64_t i = 0; i < ne; ++i) {
    WIRE_TRY(e, DecodeEndpointEntry(&r));
    out.endpoints.push_back(std::move(e));
  }
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> BootstrapAck::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutU32(node);
  w.PutString(name);
  w.PutU8(accepted ? 1 : 0);
  w.PutString(error);
  return w.TakeBytes();
}

Result<BootstrapAck> BootstrapAck::Decode(ByteView bytes) {
  Reader r(bytes);
  BootstrapAck out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(node, r.GetU32());
  out.node = node;
  WIRE_TRY(name, r.GetString());
  out.name = std::move(name);
  WIRE_TRY(accepted, r.GetU8());
  out.accepted = accepted != 0;
  WIRE_TRY(error, r.GetString());
  out.error = std::move(error);
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> ControlStartDiscovery::Encode() const {
  return EncodeEpochOnly(epoch);
}

Result<ControlStartDiscovery> ControlStartDiscovery::Decode(ByteView bytes) {
  WIRE_TRY(epoch, DecodeEpochOnly(bytes));
  return ControlStartDiscovery{epoch};
}

std::vector<uint8_t> ControlStartUpdate::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutVarint(session);
  return w.TakeBytes();
}

Result<ControlStartUpdate> ControlStartUpdate::Decode(ByteView bytes) {
  Reader r(bytes);
  ControlStartUpdate out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(session, r.GetVarint());
  out.session = session;
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> ControlRefreshScc::Encode() const {
  return EncodeEpochOnly(epoch);
}

Result<ControlRefreshScc> ControlRefreshScc::Decode(ByteView bytes) {
  WIRE_TRY(epoch, DecodeEpochOnly(bytes));
  return ControlRefreshScc{epoch};
}

std::vector<uint8_t> StatusRequest::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutVarint(id);
  w.PutU8(static_cast<uint8_t>(until));
  w.PutVarint(session);
  return w.TakeBytes();
}

Result<StatusRequest> StatusRequest::Decode(ByteView bytes) {
  Reader r(bytes);
  StatusRequest out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(id, r.GetVarint());
  out.id = id;
  WIRE_TRY(until, r.GetU8());
  if (until > static_cast<uint8_t>(Until::kUpdateClosed)) {
    return Status::ParseError("unknown status condition " +
                              std::to_string(until));
  }
  out.until = static_cast<Until>(until);
  WIRE_TRY(session, r.GetVarint());
  out.session = session;
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> StatusReport::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutVarint(id);
  w.PutU32(node);
  w.PutString(name);
  w.PutU8(state_discovery);
  w.PutU8(state_update);
  w.PutVarint(tuples);
  w.PutVarint(tuples_inserted);
  w.PutVarint(joins_evaluated);
  w.PutVarint(answers_sent);
  w.PutVarint(token_passes);
  w.PutVarint(reopens);
  return w.TakeBytes();
}

Result<StatusReport> StatusReport::Decode(ByteView bytes) {
  Reader r(bytes);
  StatusReport out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(id, r.GetVarint());
  out.id = id;
  WIRE_TRY(node, r.GetU32());
  out.node = node;
  WIRE_TRY(name, r.GetString());
  out.name = std::move(name);
  WIRE_TRY(state_d, r.GetU8());
  out.state_discovery = state_d;
  WIRE_TRY(state_u, r.GetU8());
  out.state_update = state_u;
  WIRE_TRY(tuples, r.GetVarint());
  out.tuples = tuples;
  WIRE_TRY(inserted, r.GetVarint());
  out.tuples_inserted = inserted;
  WIRE_TRY(joins, r.GetVarint());
  out.joins_evaluated = joins;
  WIRE_TRY(answers, r.GetVarint());
  out.answers_sent = answers;
  WIRE_TRY(passes, r.GetVarint());
  out.token_passes = passes;
  WIRE_TRY(reopens, r.GetVarint());
  out.reopens = reopens;
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> DumpRequest::Encode() const {
  return EncodeEpochOnly(epoch);
}

Result<DumpRequest> DumpRequest::Decode(ByteView bytes) {
  WIRE_TRY(epoch, DecodeEpochOnly(bytes));
  return DumpRequest{epoch};
}

std::vector<uint8_t> DumpReply::Encode() const {
  Writer w;
  w.PutVarint(epoch);
  w.PutU32(node);
  w.PutVarint(database.size());
  w.PutRaw(database.data(), database.size());
  return w.TakeBytes();
}

Result<DumpReply> DumpReply::Decode(ByteView bytes) {
  Reader r(bytes);
  DumpReply out;
  WIRE_TRY(epoch, r.GetVarint());
  out.epoch = epoch;
  WIRE_TRY(node, r.GetU32());
  out.node = node;
  WIRE_TRY(size, r.GetVarint());
  WIRE_TRY(data, r.GetRaw(size));
  out.database.assign(data, data + size);
  P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

std::vector<uint8_t> ControlShutdown::Encode() const {
  return EncodeEpochOnly(epoch);
}

Result<ControlShutdown> ControlShutdown::Decode(ByteView bytes) {
  WIRE_TRY(epoch, DecodeEpochOnly(bytes));
  return ControlShutdown{epoch};
}

}  // namespace p2pdb::core::wire
