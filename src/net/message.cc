#include "src/net/message.h"

#include <array>

#include "src/util/string_util.h"

namespace p2pdb::net {

namespace {

/// What the transport and the simulator know about one message type.
struct TypeFacts {
  MessageType type;
  /// As logs, statistics and trace spans print it.
  const char* name;
  bool urgent;      // See IsUrgent.
  bool duplicable;  // See IsDuplicable.
};

constexpr TypeFacts kTypes[] = {
    {MessageType::kDiscoverRequest, "DiscoverRequest", false, true},
    {MessageType::kDiscoverAnswer, "DiscoverAnswer", false, true},
    {MessageType::kDiscoverClosure, "DiscoverClosure", false, true},
    {MessageType::kUpdateStart, "UpdateStart", false, true},
    {MessageType::kQueryRequest, "QueryRequest", false, true},
    {MessageType::kQueryAnswer, "QueryAnswer", false, true},
    {MessageType::kUnsubscribe, "Unsubscribe", false, true},
    {MessageType::kPartialUpdate, "PartialUpdate", false, true},
    {MessageType::kToken, "Token", true, false},
    {MessageType::kSccClosed, "SccClosed", true, false},
    {MessageType::kReopen, "Reopen", true, false},
    {MessageType::kAddRule, "AddRule", false, false},
    {MessageType::kDeleteRule, "DeleteRule", false, false},
    {MessageType::kBatch, "Batch", false, false},
    {MessageType::kCredit, "Credit", false, false},
    {MessageType::kBootstrap, "Bootstrap", true, false},
    {MessageType::kBootstrapAck, "BootstrapAck", true, false},
    {MessageType::kStartDiscovery, "StartDiscovery", true, false},
    {MessageType::kStartUpdate, "StartUpdate", true, false},
    {MessageType::kRefreshScc, "RefreshScc", true, false},
    {MessageType::kStatusRequest, "StatusRequest", true, false},
    {MessageType::kStatusReport, "StatusReport", true, false},
    {MessageType::kDumpRequest, "DumpRequest", true, false},
    {MessageType::kDumpReply, "DumpReply", true, false},
    {MessageType::kShutdown, "Shutdown", true, false},
};

/// The facts of a byte that encodes no type.
constexpr TypeFacts kUnknown = {MessageType{0}, "Unknown", false, false};

constexpr std::array<const TypeFacts*, 256> IndexByRaw() {
  std::array<const TypeFacts*, 256> index{};
  index.fill(&kUnknown);
  for (const TypeFacts& facts : kTypes) {
    index[static_cast<uint8_t>(facts.type)] = &facts;
  }
  return index;
}

constexpr std::array<const TypeFacts*, 256> kByRaw = IndexByRaw();

const TypeFacts& Facts(MessageType type) {
  return *kByRaw[static_cast<uint8_t>(type)];
}

}  // namespace

const char* MessageTypeName(MessageType type) { return Facts(type).name; }

bool IsKnownMessageType(uint8_t raw) { return kByRaw[raw] != &kUnknown; }

bool IsUrgent(MessageType type) { return Facts(type).urgent; }

bool IsDuplicable(MessageType type) { return Facts(type).duplicable; }

std::string Message::ToString() const {
  return StrFormat("%s %u->%u (%zu bytes, seq %llu)", MessageTypeName(type),
                   from, to, payload.size(),
                   static_cast<unsigned long long>(seq));
}

}  // namespace p2pdb::net
