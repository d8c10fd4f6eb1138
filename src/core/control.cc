#include "src/core/control.h"

namespace p2pdb::core::wire {

// --- Field lists ---------------------------------------------------------
//
// In namespace wire, like wire.cc's: EncodeFields and DecodeFields find a
// payload's list by argument-dependent lookup.

/// The port is a varint, so a value above 65535 fails to decode.
template <class IO>
void Fields(IO& io, FieldRef<IO, EndpointEntry> e) {
  io.U32(e.node);
  io.Str(e.host);
  io.Varint(e.port);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, SessionBootstrap> x) {
  io.U32(x.node);
  io.Str(x.name);
  io.U32(x.super_peer);
  io.Each(x.schema, [&io](auto& schema) { Fields(io, schema); });
  io.Each(x.rules, [&io, &x](auto& rule) {
    Fields(io, rule);
    io.Check(rule.head_node == x.node,
             "bootstrap rule is not headed at the bootstrapped node");
  });
  io.Each(x.endpoints, [&io](auto& e) { Fields(io, e); });
}

template <class IO>
void Fields(IO& io, FieldRef<IO, BootstrapAck> x) {
  io.U32(x.node);
  io.Str(x.name);
  io.Bool(x.accepted);
  io.Str(x.error);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, ControlStartUpdate> x) {
  io.Varint(x.session);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, StatusRequest> x) {
  io.Varint(x.id);
  io.Enum(x.until, StatusRequest::Until::kUpdateClosed, "status condition");
  io.Varint(x.session);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, StatusReport> x) {
  io.Varint(x.id);
  io.U32(x.node);
  io.Str(x.name);
  io.U8(x.state_discovery);
  io.U8(x.state_update);
  io.Varint(x.tuples);
  io.Varint(x.tuples_inserted);
  io.Varint(x.joins_evaluated);
  io.Varint(x.answers_sent);
  io.Varint(x.token_passes);
  io.Varint(x.reopens);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, DumpReply> x) {
  io.U32(x.node);
  io.Bytes(x.database);
}

// --- Payload entry points ------------------------------------------------

std::vector<uint8_t> SessionBootstrap::Encode() const {
  return EncodeFields(*this);
}
Result<SessionBootstrap> SessionBootstrap::Decode(ByteView bytes) {
  return DecodeFields<SessionBootstrap>(bytes);
}

std::vector<uint8_t> BootstrapAck::Encode() const {
  return EncodeFields(*this);
}
Result<BootstrapAck> BootstrapAck::Decode(ByteView bytes) {
  return DecodeFields<BootstrapAck>(bytes);
}

std::vector<uint8_t> ControlStartUpdate::Encode() const {
  return EncodeFields(*this);
}
Result<ControlStartUpdate> ControlStartUpdate::Decode(ByteView bytes) {
  return DecodeFields<ControlStartUpdate>(bytes);
}

std::vector<uint8_t> StatusRequest::Encode() const {
  return EncodeFields(*this);
}
Result<StatusRequest> StatusRequest::Decode(ByteView bytes) {
  return DecodeFields<StatusRequest>(bytes);
}

std::vector<uint8_t> StatusReport::Encode() const {
  return EncodeFields(*this);
}
Result<StatusReport> StatusReport::Decode(ByteView bytes) {
  return DecodeFields<StatusReport>(bytes);
}

std::vector<uint8_t> DumpReply::Encode() const { return EncodeFields(*this); }
Result<DumpReply> DumpReply::Decode(ByteView bytes) {
  return DecodeFields<DumpReply>(bytes);
}

}  // namespace p2pdb::core::wire
