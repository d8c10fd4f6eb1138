#include "src/core/control.h"

#include <algorithm>

#include "src/core/peer.h"
#include "src/util/string_util.h"

namespace p2pdb::core::wire {

// --- Field lists ---------------------------------------------------------
//
// In namespace wire, like wire.cc's: EncodeFields and DecodeFields find a
// payload's list by argument-dependent lookup.

/// The port is a varint, so a value above 65535 fails to decode.
template <class IO>
void Fields(IO& io, FieldRef<IO, SessionBootstrap> x) {
  io.U32(x.system_digest);
  io.Str(x.controller_host);
  io.Varint(x.controller_port);
}

template <class IO>
void Fields(IO& io, FieldRef<IO, BootstrapAck> x) {
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

namespace p2pdb::core {

wire::StatusReport StatusRow(const Peer& peer) {
  wire::StatusReport row;
  row.state_discovery = static_cast<uint8_t>(peer.discovery().state());
  row.state_update = static_cast<uint8_t>(peer.update().state());
  row.tuples = peer.db().TotalTuples();
  const UpdateEngine::Stats& stats = peer.update().stats();
  row.tuples_inserted = stats.tuples_inserted;
  row.joins_evaluated = stats.joins_evaluated;
  row.answers_sent = stats.answers_sent;
  row.token_passes = stats.token_passes;
  row.reopens = stats.reopens;
  return row;
}

std::string FormatStatistics(const std::vector<std::string>& names,
                             const std::vector<wire::StatusReport>& rows) {
  // By DiscoveryEngine::State and UpdateEngine::State; "?" past the end.
  static constexpr const char* kDiscovery[] = {"undef", "disc", "closed", "?"};
  static constexpr const char* kUpdate[] = {"idle", "open", "closed", "?"};
  auto ull = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::string out = StrFormat("%-10s %-8s %-8s %10s %10s %10s %10s %8s %8s\n",
                              "node", "state_d", "state_u", "tuples",
                              "inserted", "joins", "answers", "tokens",
                              "reopens");
  for (size_t i = 0; i < rows.size(); ++i) {
    const wire::StatusReport& r = rows[i];
    out += StrFormat(
        "%-10s %-8s %-8s %10llu %10llu %10llu %10llu %8llu %8llu\n",
        names[i].c_str(), kDiscovery[std::min<uint8_t>(r.state_discovery, 3)],
        kUpdate[std::min<uint8_t>(r.state_update, 3)], ull(r.tuples),
        ull(r.tuples_inserted), ull(r.joins_evaluated), ull(r.answers_sent),
        ull(r.token_passes), ull(r.reopens));
  }
  return out;
}

}  // namespace p2pdb::core
