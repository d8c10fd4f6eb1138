#include "src/net/message.h"

#include "src/util/string_util.h"

namespace p2pdb::net {

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kDiscoverRequest:
      return "DiscoverRequest";
    case MessageType::kDiscoverAnswer:
      return "DiscoverAnswer";
    case MessageType::kDiscoverClosure:
      return "DiscoverClosure";
    case MessageType::kUpdateStart:
      return "UpdateStart";
    case MessageType::kQueryRequest:
      return "QueryRequest";
    case MessageType::kQueryAnswer:
      return "QueryAnswer";
    case MessageType::kUnsubscribe:
      return "Unsubscribe";
    case MessageType::kPartialUpdate:
      return "PartialUpdate";
    case MessageType::kToken:
      return "Token";
    case MessageType::kSccClosed:
      return "SccClosed";
    case MessageType::kReopen:
      return "Reopen";
    case MessageType::kAddRule:
      return "AddRule";
    case MessageType::kDeleteRule:
      return "DeleteRule";
    case MessageType::kBatch:
      return "Batch";
    case MessageType::kCredit:
      return "Credit";
    case MessageType::kBootstrap:
      return "Bootstrap";
    case MessageType::kBootstrapAck:
      return "BootstrapAck";
    case MessageType::kStartDiscovery:
      return "StartDiscovery";
    case MessageType::kStartUpdate:
      return "StartUpdate";
    case MessageType::kRefreshScc:
      return "RefreshScc";
    case MessageType::kStatusRequest:
      return "StatusRequest";
    case MessageType::kStatusReport:
      return "StatusReport";
    case MessageType::kDumpRequest:
      return "DumpRequest";
    case MessageType::kDumpReply:
      return "DumpReply";
    case MessageType::kShutdown:
      return "Shutdown";
  }
  return "Unknown";
}

bool IsKnownMessageType(uint8_t raw) {
  switch (static_cast<MessageType>(raw)) {
    case MessageType::kDiscoverRequest:
    case MessageType::kDiscoverAnswer:
    case MessageType::kDiscoverClosure:
    case MessageType::kUpdateStart:
    case MessageType::kQueryRequest:
    case MessageType::kQueryAnswer:
    case MessageType::kUnsubscribe:
    case MessageType::kPartialUpdate:
    case MessageType::kToken:
    case MessageType::kSccClosed:
    case MessageType::kReopen:
    case MessageType::kAddRule:
    case MessageType::kDeleteRule:
    case MessageType::kBatch:
    case MessageType::kCredit:
    case MessageType::kBootstrap:
    case MessageType::kBootstrapAck:
    case MessageType::kStartDiscovery:
    case MessageType::kStartUpdate:
    case MessageType::kRefreshScc:
    case MessageType::kStatusRequest:
    case MessageType::kStatusReport:
    case MessageType::kDumpRequest:
    case MessageType::kDumpReply:
    case MessageType::kShutdown:
      return true;
  }
  return false;
}

bool IsUrgent(MessageType type) {
  return type == MessageType::kToken || type == MessageType::kSccClosed ||
         type == MessageType::kReopen ||
         (type >= MessageType::kBootstrap && type <= MessageType::kShutdown);
}

std::string Message::ToString() const {
  return StrFormat("%s %u->%u (%zu bytes, seq %llu)", MessageTypeName(type),
                   from, to, payload.size(),
                   static_cast<unsigned long long>(seq));
}

}  // namespace p2pdb::net
