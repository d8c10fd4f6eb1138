#include "src/net/stats.h"

#include "src/obs/metrics.h"
#include "src/util/string_util.h"

namespace p2pdb::net {

void IoCounters::RecordQueueDepth(uint64_t bytes) {
  uint64_t seen = send_queue_hwm_bytes.load(std::memory_order_relaxed);
  while (bytes > seen && !send_queue_hwm_bytes.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
}

double IoCounters::FramesPerWritev() const {
  uint64_t calls = writev_calls.load();
  return calls == 0 ? 0.0
                    : static_cast<double>(writev_frames.load()) /
                          static_cast<double>(calls);
}

void IoCounters::Reset() {
  epoll_wakeups = 0;
  writev_calls = 0;
  writev_frames = 0;
  writev_bytes = 0;
  accepts = 0;
  connects = 0;
  connect_failures = 0;
  inline_dispatches = 0;
  queued_dispatches = 0;
  send_queue_hwm_bytes = 0;
  frames_enqueued = 0;
  batch_frames = 0;
  batched_messages = 0;
  credit_frames = 0;
}

void NetStats::RecordSend(const Message& msg) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t bytes = msg.WireSize();
  total_messages_ += 1;
  total_bytes_ += bytes;
  PipeStats& by_type = per_type_[msg.type];
  by_type.messages += 1;
  by_type.bytes += bytes;
  PipeStats& by_pipe = per_pipe_[{msg.from, msg.to}];
  by_pipe.messages += 1;
  by_pipe.bytes += bytes;
}

void NetStats::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  total_messages_ = 0;
  total_bytes_ = 0;
  per_type_.clear();
  per_pipe_.clear();
  io_.Reset();
}

uint64_t NetStats::total_messages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_messages_;
}

uint64_t NetStats::total_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

uint64_t NetStats::MessagesOfType(MessageType type) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = per_type_.find(type);
  return it == per_type_.end() ? 0 : it->second.messages;
}

uint64_t NetStats::BytesOfType(MessageType type) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = per_type_.find(type);
  return it == per_type_.end() ? 0 : it->second.bytes;
}

std::map<std::pair<NodeId, NodeId>, PipeStats> NetStats::PerPipe() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return per_pipe_;
}

void NetStats::ExportTo(obs::Registry& registry,
                        const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  registry.GetCounter(prefix + "messages")->Add(total_messages_);
  registry.GetCounter(prefix + "bytes")->Add(total_bytes_);
  for (const auto& [type, stats] : per_type_) {
    std::string type_prefix = prefix + "type." + MessageTypeName(type) + ".";
    registry.GetCounter(type_prefix + "messages")->Add(stats.messages);
    registry.GetCounter(type_prefix + "bytes")->Add(stats.bytes);
  }
  registry.GetCounter(prefix + "io.epoll_wakeups")->Add(io_.epoll_wakeups);
  registry.GetCounter(prefix + "io.writev_calls")->Add(io_.writev_calls);
  registry.GetCounter(prefix + "io.writev_frames")->Add(io_.writev_frames);
  registry.GetCounter(prefix + "io.writev_bytes")->Add(io_.writev_bytes);
  registry.GetCounter(prefix + "io.accepts")->Add(io_.accepts);
  registry.GetCounter(prefix + "io.connects")->Add(io_.connects);
  registry.GetCounter(prefix + "io.connect_failures")
      ->Add(io_.connect_failures);
  registry.GetCounter(prefix + "io.frames_enqueued")->Add(io_.frames_enqueued);
  registry.GetCounter(prefix + "io.batch_frames")->Add(io_.batch_frames);
  registry.GetCounter(prefix + "io.batched_messages")
      ->Add(io_.batched_messages);
  registry.GetCounter(prefix + "io.credit_frames")->Add(io_.credit_frames);
  uint64_t inline_d = io_.inline_dispatches.load();
  uint64_t queued_d = io_.queued_dispatches.load();
  registry.GetCounter(prefix + "io.inline_dispatches")->Add(inline_d);
  registry.GetCounter(prefix + "io.queued_dispatches")->Add(queued_d);
  if (inline_d + queued_d > 0) {
    registry.GetGauge(prefix + "io.inline_dispatch_ratio_x1000")
        ->Set(static_cast<int64_t>(inline_d * 1000 / (inline_d + queued_d)));
  }
  registry.GetGauge(prefix + "io.send_queue_hwm_bytes")
      ->RaiseTo(static_cast<int64_t>(io_.send_queue_hwm_bytes.load()));
}

std::string NetStats::Report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out =
      StrFormat("messages=%llu bytes=%llu\n",
                static_cast<unsigned long long>(total_messages_),
                static_cast<unsigned long long>(total_bytes_));
  for (const auto& [type, stats] : per_type_) {
    out += StrFormat("  %-16s msgs=%-8llu bytes=%llu\n", MessageTypeName(type),
                     static_cast<unsigned long long>(stats.messages),
                     static_cast<unsigned long long>(stats.bytes));
  }
  return out;
}

}  // namespace p2pdb::net
