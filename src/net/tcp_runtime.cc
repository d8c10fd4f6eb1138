#include "src/net/tcp_runtime.h"

#include <cstring>
#include <thread>

#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace p2pdb::net {

std::string TcpRuntime::Endpoint::ToString() const {
  return host + ":" + std::to_string(port);
}

Result<TcpRuntime::Endpoint> TcpRuntime::Endpoint::Parse(
    const std::string& text) {
  size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    return Status::ParseError("endpoint '" + text + "' is not host:port");
  }
  Endpoint out;
  out.host = text.substr(0, colon);
  long port = 0;
  for (size_t i = colon + 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') {
      return Status::ParseError("endpoint '" + text + "' has a bad port");
    }
    port = port * 10 + (text[i] - '0');
    if (port > 65535) {
      return Status::ParseError("endpoint '" + text + "' port out of range");
    }
  }
  out.port = static_cast<uint16_t>(port);
  return out;
}

TcpRuntime::TcpRuntime(Options options)
    : options_(std::move(options)),
      start_time_(std::chrono::steady_clock::now()) {
  Reactor::Options reactor_options;
  reactor_options.workers = options_.io_workers;
  reactor_options.counters = &stats_.io();
  reactor_ = std::make_unique<Reactor>(reactor_options,
                                       static_cast<Reactor::Handler*>(this));
}

TcpRuntime::~TcpRuntime() { Shutdown(); }

void TcpRuntime::Shutdown() { reactor_->Stop(); }

void TcpRuntime::RegisterPeer(NodeId id, PeerHandler* handler) {
  {
    std::lock_guard<std::mutex> lock(mailboxes_mutex_);
    std::unique_ptr<Mailbox>& box = mailboxes_[id];
    if (box == nullptr) box = std::make_unique<Mailbox>();
    // A restarted peer keeps its mailbox; only the handler is rebound.
    std::lock_guard<std::mutex> box_lock(box->mutex);
    box->handler = handler;
  }
  Status listening = OpenListener(id);
  if (!listening.ok()) {
    P2PDB_LOG(kError) << "node " << id
                      << " cannot listen: " << listening.ToString();
  }
}

void TcpRuntime::UnregisterPeer(NodeId id) {
  {
    std::lock_guard<std::mutex> lock(net_mutex_);
    listen_ports_.erase(id);
    // The endpoint row stays: reconnect-on-send probes the stale port (the
    // kernel refuses, counted as drops) until a restart overwrites it.
    outbound_.erase(id);
  }
  // Socket teardown before handler detach: after this, frames to `id` are
  // refused or reset by the kernel, which is exactly what the dropped
  // counter observes. Closes `id`'s listener, the connections accepted on
  // it, and the shared outbound connection to `id`.
  reactor_->CloseToken(id);
  Mailbox* box = FindMailbox(id);
  if (box == nullptr) return;
  std::unique_lock<std::mutex> box_lock(box->mutex);
  box->handler = nullptr;
  if (!box->queue.empty()) {
    CountDrop(box->queue.size());
    ReleaseWork(box->queue.size());
    box->queue.clear();
  }
  // The caller will destroy the handler object; wait out the thread that
  // holds the mailbox, which may be inside the handler right now.
  box->idle.wait(box_lock, [&] { return !box->busy; });
}

TcpRuntime::Mailbox* TcpRuntime::FindMailbox(NodeId id) const {
  std::lock_guard<std::mutex> lock(mailboxes_mutex_);
  auto it = mailboxes_.find(id);
  return it == mailboxes_.end() ? nullptr : it->second.get();
}

namespace {

obs::Histogram* MailboxWait() {
  static obs::Histogram* wait =
      obs::Registry::Global().GetHistogram("net.mailbox_wait_micros");
  return wait;
}

}  // namespace

void TcpRuntime::DispatchFromTransport(Message&& msg) {
  Mailbox* box = FindMailbox(msg.to);
  if (box == nullptr) {
    CountDrop();
    P2PDB_LOG(kWarn) << "dropping message to unknown peer: " << msg.ToString();
    return;
  }
  PeerHandler* handler = nullptr;
  {
    std::lock_guard<std::mutex> box_lock(box->mutex);
    if (box->handler == nullptr) {
      CountDrop();
      P2PDB_LOG(kWarn) << "dropping message to crashed peer: "
                       << msg.ToString();
      return;
    }
    HoldWork();  // Released after the message's dispatch ends.
    if (box->busy) {
      // The thread holding the mailbox runs this message before it lets go.
      // The read buffer is reused the moment this returns, so a borrowed
      // payload must become owned before it is queued.
      msg.payload.EnsureOwned();
      if (obs::DetailedTimingEnabled() || msg.trace.active()) {
        msg.queued_micros = NowMicros();  // DrainMailbox turns it into a wait.
      }
      box->queue.push_back(std::move(msg));
      stats_.io().queued_dispatches.fetch_add(1);
      return;
    }
    box->busy = true;
    handler = box->handler;
  }
  stats_.io().inline_dispatches.fetch_add(1);
  if (obs::DetailedTimingEnabled() || msg.trace.active()) {
    // Record the zero wait, so the wait distribution covers every delivered
    // message and not just the queued ones.
    MailboxWait()->Record(0);
  }
  BeginDispatch();
  handler->OnMessage(msg);
  EndDispatch();
  DrainMailbox(box, /*holding=*/true);
}

void TcpRuntime::RunExclusive(NodeId id, const std::function<void()>& fn) {
  Mailbox* box = FindMailbox(id);
  if (box == nullptr) {
    fn();  // Never-registered peer: no dispatch to exclude.
    return;
  }
  {
    std::unique_lock<std::mutex> box_lock(box->mutex);
    box->idle.wait(box_lock, [&] { return !box->busy; });
    box->busy = true;
  }
  BeginDispatch();
  fn();
  EndDispatch();
  DrainMailbox(box, /*holding=*/false);
}

void TcpRuntime::DrainMailbox(Mailbox* box, bool holding) {
  for (;;) {
    Message msg;
    PeerHandler* handler = nullptr;
    {
      std::lock_guard<std::mutex> box_lock(box->mutex);
      if (box->queue.empty() || box->handler == nullptr) {
        box->busy = false;
        break;
      }
      msg = std::move(box->queue.front());
      box->queue.pop_front();
      handler = box->handler;
    }
    if (holding) ReleaseWork();  // The popped message keeps the count up.
    holding = true;
    if (msg.queued_micros != 0) {
      // Rewrite the enqueue stamp into the measured wait, so the handler's
      // trace span sees its mailbox residency directly.
      uint64_t now = NowMicros();
      msg.queued_micros =
          now >= msg.queued_micros ? now - msg.queued_micros : 0;
      MailboxWait()->Record(msg.queued_micros);
    }
    BeginDispatch();
    handler->OnMessage(msg);
    EndDispatch();
  }
  box->idle.notify_all();
  if (holding) ReleaseWork();
}

uint64_t TcpRuntime::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void TcpRuntime::ReleaseWork(uint64_t units) {
  if (in_flight_.fetch_sub(units) != units) return;
  // Taking the lock orders this release against Run()'s predicate check, so
  // the notify cannot fall between that check and its wait.
  std::lock_guard<std::mutex> lock(idle_mutex_);
  idle_cv_.notify_all();
}

Status TcpRuntime::Run() {
  {
    std::unique_lock<std::mutex> lock(idle_mutex_);
    if (idle_cv_.wait_until(lock,
                            std::chrono::steady_clock::now() + options_.timeout,
                            [this] { return in_flight_.load() == 0; })) {
      return Status::OK();
    }
  }
  // Built after releasing idle_mutex_: the report takes the mailbox locks.
  std::string pending = PendingWorkReport();
  P2PDB_LOG(kWarn) << "quiescence not reached by deadline; pending work:\n"
                   << (pending.empty() ? "  (untracked in-flight holds)\n"
                                       : pending);
  return Status::Internal(
      "TcpRuntime: quiescence not reached in time (in flight: " +
      std::to_string(in_flight_.load()) + ")\n" + pending);
}

Status TcpRuntime::RunUntil(uint64_t time_micros) {
  // Wall clock is not controllable: let the reactor work until the requested
  // elapsed time, then hand control back (used by a session's run loop to
  // fire a rule change, crash or restart mid-run).
  std::this_thread::sleep_until(start_time_ +
                                std::chrono::microseconds(time_micros));
  if (uint64_t holds = in_flight_.load(); holds != 0) {
    // Expected mid-script (that is what RunUntil is for), but say what is
    // still moving so a stuck fixpoint is debuggable from the log alone.
    P2PDB_LOG(kDebug) << "RunUntil deadline with " << holds
                      << " in-flight holds; pending work:\n"
                      << PendingWorkReport();
  }
  return Status::OK();
}

std::shared_ptr<Connection> TcpRuntime::OutboundFor(NodeId to) {
  std::lock_guard<std::mutex> lock(net_mutex_);
  auto it = endpoints_.find(to);
  if (it == endpoints_.end() || it->second.port == 0) return nullptr;
  auto& slot = outbound_[to];
  if (slot == nullptr || slot->closed()) {
    // Reconnect-on-send: the cached connection may point at a dead (crashed
    // or pre-restart) incarnation of the peer; a fresh connect gives the
    // current endpoint table row a chance.
    if (slot != nullptr) {
      static obs::Counter* reconnects =
          obs::Registry::Global().GetCounter("net.reconnects");
      reconnects->Increment();
    }
    slot = reactor_->Connect(it->second.host, it->second.port, to);
  }
  return slot;
}

TcpRuntime::BatchScope& TcpRuntime::ThisThreadBatchScope() {
  static thread_local BatchScope scope;
  return scope;
}

void TcpRuntime::BeginDispatch() {
  BatchScope& scope = ThisThreadBatchScope();
  if (scope.owner == nullptr) {
    scope.owner = this;
    scope.depth = 1;
  } else if (scope.owner == this) {
    ++scope.depth;  // Defensive: nested dispatch on one thread.
  }
  // A different runtime's bracket is already open on this thread: leave it
  // alone — our sends simply go out unbatched.
}

void TcpRuntime::EndDispatch() {
  BatchScope& scope = ThisThreadBatchScope();
  if (scope.owner != this || --scope.depth > 0) return;
  for (auto& [to, batch] : scope.dests) FlushDest(to, batch);
  scope.dests.clear();
  scope.owner = nullptr;
}

void TcpRuntime::Send(Message msg) {
  msg.seq = next_seq_.fetch_add(1);
  // Per-message accounting happens here, before coalescing, so batched
  // messages keep their own MessageType and logical wire size in NetStats —
  // kBatch never appears in the per-type tables. The transport-level saving
  // shows up in io() instead (frames_enqueued vs messages).
  stats_.RecordSend(msg);
  // In-flight from here until the receiving runtime credits the frame that
  // carries this message as consumed (or the frame is dropped) — quiescence
  // is exact, no kernel-buffer blind spot.
  HoldWork();
  BatchScope& scope = ThisThreadBatchScope();
  if (scope.owner == this) {
    if (!IsUrgent(msg.type) && options_.batch_max_bytes > 0) {
      PendingBatch& batch = scope.dests[msg.to];
      msg.payload.EnsureOwned();  // Must outlive the dispatch's read buffer.
      batch.payload_bytes += msg.payload.size();
      NodeId to = msg.to;
      batch.messages.push_back(std::move(msg));
      if (batch.payload_bytes >= options_.batch_max_bytes) {
        FlushDest(to, batch);
      }
      return;
    }
    // Urgent (or coalescing disabled): anything already pending for this
    // destination goes first, keeping per-destination FIFO order.
    auto it = scope.dests.find(msg.to);
    if (it != scope.dests.end()) FlushDest(msg.to, it->second);
  }
  NodeId to = msg.to;
  TransmitFrame(to, EncodeFrame(msg), 1);
}

void TcpRuntime::FlushDest(NodeId to, PendingBatch& batch) {
  if (batch.messages.empty()) return;
  if (batch.messages.size() == 1) {
    TransmitFrame(to, EncodeFrame(batch.messages.front()), 1);
  } else {
    stats_.io().batch_frames.fetch_add(1);
    stats_.io().batched_messages.fetch_add(batch.messages.size());
    TransmitFrame(to, EncodeBatchFrame(batch.messages),
                  static_cast<uint32_t>(batch.messages.size()));
  }
  batch.messages.clear();
  batch.payload_bytes = 0;
}

std::shared_ptr<TcpRuntime::ConnState> TcpRuntime::StateFor(Connection* conn) {
  std::lock_guard<std::mutex> lock(states_mutex_);
  auto it = conn_states_.find(conn);
  if (it != conn_states_.end()) return it->second;
  auto state = std::make_shared<ConnState>();
  // Checked under states_mutex_: OnClose (which sets closed before running)
  // extracts the map entry under the same lock, so either we insert before
  // the extraction (and OnClose drains our entries) or we observe closed()
  // here and never insert a ledger nobody would drain.
  if (conn->closed()) {
    state->send_closed = true;
    return state;  // Ephemeral: callers self-account against it.
  }
  conn_states_.emplace(conn, state);
  return state;
}

void TcpRuntime::DrainAckedLocked(ConnState& st) {
  while (st.frames_acked < st.credit_target && !st.ledger.empty()) {
    uint32_t messages = st.ledger.front();
    st.ledger.pop_front();
    st.frames_acked += 1;
    ReleaseWork(messages);
  }
}

void TcpRuntime::HandleCredit(Connection* conn, uint64_t credit) {
  std::shared_ptr<ConnState> st = StateFor(conn);
  std::lock_guard<std::mutex> lock(st->mutex);
  if (credit > st->credit_target) st->credit_target = credit;
  DrainAckedLocked(*st);
}

void TcpRuntime::TransmitFrame(NodeId to, std::vector<uint8_t> frame,
                               uint32_t messages) {
  // Every drop below is counted before its holds are released: Run() returns
  // the moment the last hold goes, and its caller may read dropped_count().
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::shared_ptr<Connection> conn = OutboundFor(to);
    if (conn == nullptr) {
      CountDrop(messages);
      ReleaseWork(messages);
      P2PDB_LOG(kWarn) << "dropping " << messages
                       << " message(s) to unknown endpoint (node " << to
                       << ")";
      return;
    }
    // On success the reactor owns the frame; a false return means the
    // connection closed underneath us and the frame is untouched — retry
    // once on a fresh connection.
    if (conn->Enqueue(std::move(frame))) {
      stats_.io().frames_enqueued.fetch_add(1);
      std::shared_ptr<ConnState> st = StateFor(conn.get());
      std::lock_guard<std::mutex> lock(st->mutex);
      if (st->send_closed) {
        // OnClose already drained this connection's ledger, so the reactor
        // cleared its queue and this frame died with it: account it here.
        CountDrop(messages);
        ReleaseWork(messages);
        return;
      }
      st->ledger.push_back(messages);
      st->frames_enqueued += 1;
      // A credit can race ahead of this append (the receiver consumed the
      // frame before we got the ledger entry in): drain immediately.
      DrainAckedLocked(*st);
      return;
    }
  }
  CountDrop(messages);
  ReleaseWork(messages);
  P2PDB_LOG(kWarn) << "kernel refused delivery of " << messages
                   << " message(s) to node " << to;
}

Status TcpRuntime::AddRemoteEndpoint(NodeId id, Endpoint endpoint) {
  std::lock_guard<std::mutex> lock(net_mutex_);
  auto it = endpoints_.find(id);
  if (it != endpoints_.end()) {
    if (it->second.host == endpoint.host && it->second.port == endpoint.port) {
      return Status::OK();  // Idempotent re-add (a re-applied table).
    }
    P2PDB_LOG(kWarn) << "endpoint conflict for node " << id << ": have "
                     << it->second.ToString() << ", refusing remap to "
                     << endpoint.ToString();
    return Status::AlreadyExists(
        "node " + std::to_string(id) + " is already mapped to " +
        it->second.ToString() + "; refusing remap to " + endpoint.ToString());
  }
  endpoints_[id] = std::move(endpoint);
  return Status::OK();
}

TcpRuntime::Endpoint TcpRuntime::EndpointOf(NodeId id) const {
  std::lock_guard<std::mutex> lock(net_mutex_);
  auto it = endpoints_.find(id);
  return it == endpoints_.end() ? Endpoint{} : it->second;
}

Status TcpRuntime::PeerReady(NodeId id) const {
  std::lock_guard<std::mutex> lock(net_mutex_);
  if (listen_ports_.count(id) == 0) {
    return Status::Internal("node " + std::to_string(id) +
                            " has no listening endpoint");
  }
  return Status::OK();
}

uint16_t TcpRuntime::ListenPort(NodeId id) const {
  std::lock_guard<std::mutex> lock(net_mutex_);
  auto it = listen_ports_.find(id);
  return it == listen_ports_.end() ? 0 : it->second;
}

std::string TcpRuntime::EndpointTable() const {
  std::lock_guard<std::mutex> lock(net_mutex_);
  std::string out;
  for (const auto& [id, endpoint] : endpoints_) {
    out += StrFormat("%u %s\n", id, endpoint.ToString().c_str());
  }
  return out;
}

Status TcpRuntime::OpenListener(NodeId id) {
  {
    std::lock_guard<std::mutex> lock(net_mutex_);
    if (listen_ports_.count(id) > 0) {
      // Registered twice without a crash in between: keep the first listener
      // (its port is already in other runtimes' tables).
      return Status::OK();
    }
  }
  Result<uint16_t> port =
      reactor_->Listen(options_.host, id, options_.listen_port);
  if (!port.ok()) return port.status();
  std::lock_guard<std::mutex> lock(net_mutex_);
  listen_ports_[id] = *port;
  endpoints_[id] = Endpoint{options_.host, *port};
  return Status::OK();
}

bool TcpRuntime::OnRead(Connection* conn, const uint8_t* data, size_t size) {
  std::shared_ptr<ConnState> state = StateFor(conn);
  if (!state->holding) {
    HoldWork();
    state->holding = true;
  }
  // Complete frames dispatch straight out of the reactor's read buffer: the
  // payload view stays borrowed through an inline dispatch and is only
  // copied when the destination mailbox is busy. Credits never reach a
  // mailbox — they retire this runtime's send ledger on the spot.
  Status fed = state->assembler.FeedViews(
      data, size, [this, conn](const FrameView& view) {
        if (view.type == MessageType::kCredit) {
          auto credit = DecodeCreditPayload(view);
          if (credit.ok()) HandleCredit(conn, *credit);
          return;
        }
        DispatchFromTransport(view.BorrowMessage());
      });
  if (state->holding && state->assembler.buffered_bytes() == 0) {
    ReleaseWork();
    state->holding = false;
  }
  // Receiver half of the credit protocol: ack every frame consumed off an
  // inbound connection so the sending runtime can retire its holds. The
  // credit is sent after the dispatches above, so the sender's hold always
  // outlives the start of the receiver's own accounting — the global
  // in-flight count can never dip to zero mid-handoff. Credits themselves
  // arrive on outbound connections and are exempt, so the exchange cannot
  // regress. Enqueue from the owning worker never blocks.
  if (conn->inbound()) {
    uint64_t consumed = state->assembler.frames_decoded();
    if (consumed > state->credited_out) {
      state->credited_out = consumed;
      if (conn->Enqueue(
              EncodeCreditFrame(static_cast<NodeId>(conn->token()),
                                consumed))) {
        stats_.io().credit_frames.fetch_add(1);
      }
    }
  }
  if (!fed.ok()) {
    // A poisoned stream cannot be resynchronized; drop the connection.
    P2PDB_LOG(kWarn) << "closing corrupt stream to node " << conn->token()
                     << ": " << fed.ToString();
    return false;
  }
  return true;
}

void TcpRuntime::OnWritten(Connection* conn, size_t frames) {
  // Only outbound connections carry ledger-tracked frames (inbound ones
  // carry our credit acks, which are untracked). The count feeds OnClose's
  // written-vs-dropped split; holds are released by credits, not here.
  if (conn->inbound()) return;
  StateFor(conn)->written_frames.fetch_add(frames);
}

void TcpRuntime::OnClose(Connection* conn, size_t dropped_frames) {
  (void)dropped_frames;  // The ledger below is message-accurate.
  std::shared_ptr<ConnState> state;
  {
    std::lock_guard<std::mutex> lock(states_mutex_);
    auto it = conn_states_.find(conn);
    if (it == conn_states_.end()) return;
    state = std::move(it->second);
    conn_states_.erase(it);
  }
  if (state->holding) ReleaseWork();  // Partial inbound frame dies with the fd.
  uint64_t dropped_messages = 0;
  uint64_t held_messages = 0;
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    state->send_closed = true;
    // Ledger entries the kernel never fully took (index beyond the written
    // count) died for sure; written-but-uncredited frames may or may not
    // have reached the peer — like the pre-credit design, they are not
    // counted as drops (the kernel accepted them), but their holds must be
    // released or quiescence would wait on a dead connection forever.
    uint64_t written = state->written_frames.load();
    uint64_t index = state->frames_acked;  // Global index of ledger.front().
    while (!state->ledger.empty()) {
      uint32_t messages = state->ledger.front();
      state->ledger.pop_front();
      ++index;
      if (index > written) dropped_messages += messages;
      held_messages += messages;
    }
  }
  CountDrop(dropped_messages);
  if (held_messages > 0) ReleaseWork(held_messages);  // After the count.
  if (dropped_messages > 0) {
    P2PDB_LOG(kWarn) << "kernel refused delivery of " << dropped_messages
                     << " message(s) to node " << conn->token();
  }
}

std::string TcpRuntime::PendingWorkReport() const {
  std::string report;
  {
    std::lock_guard<std::mutex> lock(mailboxes_mutex_);
    for (const auto& [id, box] : mailboxes_) {
      size_t queued;
      bool busy;
      {
        std::lock_guard<std::mutex> box_lock(box->mutex);
        queued = box->queue.size();
        busy = box->busy;
      }
      if (queued == 0 && !busy) continue;
      report += "  peer " + std::to_string(id) + ": " +
                std::to_string(queued) + " queued" +
                (busy ? ", handler running" : "") + "\n";
    }
  }
  std::lock_guard<std::mutex> lock(net_mutex_);
  for (const auto& [to, conn] : outbound_) {
    if (conn == nullptr) continue;
    size_t queued = conn->queued_bytes();
    uint64_t uncredited = 0;
    {
      std::lock_guard<std::mutex> states_lock(states_mutex_);
      auto it = conn_states_.find(conn.get());
      if (it != conn_states_.end()) {
        std::lock_guard<std::mutex> st_lock(it->second->mutex);
        uncredited = it->second->frames_enqueued - it->second->frames_acked;
      }
    }
    if (queued == 0 && uncredited == 0) continue;
    report += "  -> node " + std::to_string(to) + ": " +
              std::to_string(queued) + " unsent bytes, " +
              std::to_string(uncredited) + " uncredited frame(s)" +
              (conn->closed() ? " (connection closed)" : "") + "\n";
  }
  return report;
}

}  // namespace p2pdb::net
