#include "src/net/sim_runtime.h"

#include <limits>

#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace p2pdb::net {

SimRuntime::SimRuntime(Options options)
    : options_(options), rng_(options.seed) {}

void SimRuntime::RegisterPeer(NodeId id, PeerHandler* handler) {
  peers_[id] = handler;
}

void SimRuntime::UnregisterPeer(NodeId id) { peers_.erase(id); }

namespace {
bool IsIdempotentType(MessageType type) {
  switch (type) {
    case MessageType::kDiscoverRequest:
    case MessageType::kDiscoverAnswer:
    case MessageType::kDiscoverClosure:
    case MessageType::kUpdateStart:
    case MessageType::kQueryRequest:
    case MessageType::kQueryAnswer:
    case MessageType::kUnsubscribe:
    case MessageType::kPartialUpdate:
      return true;
    default:
      return false;
  }
}
}  // namespace

void SimRuntime::Send(Message msg) {
  msg.seq = next_seq_++;
  stats_.RecordSend(msg);
  uint64_t latency = pipes_.LatencyOf(msg.from, msg.to).Sample(&rng_);
  uint64_t delivery = now_micros_ + latency;
  // FIFO per directed link: never deliver before an earlier send on the link.
  uint64_t& last = last_delivery_[{msg.from, msg.to}];
  if (delivery < last) delivery = last;
  last = delivery;
  bool duplicate = options_.duplicate_prob > 0 &&
                   IsIdempotentType(msg.type) &&
                   rng_.NextBool(options_.duplicate_prob);
  if (duplicate) {
    Message copy = msg;
    copy.seq = next_seq_++;
    stats_.RecordSend(copy);
    // Same delivery time, later seq: arrives right after the original.
    queue_.push(Event{delivery, copy.seq, std::move(copy)});
  }
  queue_.push(Event{delivery, msg.seq, std::move(msg)});
}

Status SimRuntime::Drain(uint64_t until_micros) {
  uint64_t events_this_run = 0;
  while (!queue_.empty() && queue_.top().time <= until_micros) {
    Event ev = queue_.top();
    queue_.pop();
    now_micros_ = ev.time;
    ++delivered_;
    if (++events_this_run > options_.max_events) {
      return Status::Internal(
          StrFormat("SimRuntime exceeded %llu events; protocol likely "
                    "non-terminating",
                    static_cast<unsigned long long>(options_.max_events)));
    }
    auto it = peers_.find(ev.msg.to);
    if (it == peers_.end()) {
      // Destination unregistered (crashed) or never existed: the message is
      // lost, as on a real network when the process is gone.
      ++dropped_;
      P2PDB_LOG(kWarn) << "dropping message to unknown peer: "
                       << ev.msg.ToString();
      continue;
    }
    if (tracer_) tracer_(now_micros_, ev.msg);
    it->second->OnMessage(ev.msg);
  }
  return Status::OK();
}

Status SimRuntime::Run() {
  return Drain(std::numeric_limits<uint64_t>::max());
}

Status SimRuntime::RunUntil(uint64_t time_micros) {
  P2PDB_RETURN_IF_ERROR(Drain(time_micros));
  if (now_micros_ < time_micros) now_micros_ = time_micros;
  return Status::OK();
}

}  // namespace p2pdb::net
