#include "src/net/mailbox_runtime.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace p2pdb::net {

MailboxRuntime::MailboxRuntime(Options options)
    : options_(options), start_time_(std::chrono::steady_clock::now()) {}

MailboxRuntime::~MailboxRuntime() {
  // Backstop only: subclasses call Shutdown() in their own destructor, while
  // their I/O threads and the StopIo override still exist.
  Shutdown();
}

void MailboxRuntime::RegisterPeer(NodeId id, PeerHandler* handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = mailboxes_.find(id);
  if (it == mailboxes_.end()) {
    auto box = std::make_unique<Mailbox>();
    box->handler = handler;
    Mailbox* raw = box.get();
    mailboxes_[id] = std::move(box);
    if (started_) {
      threads_.emplace_back(&MailboxRuntime::PeerLoop, this, raw);
    }
    return;
  }
  // Restarted peer: the mailbox and its worker live on, only the handler is
  // rebound.
  std::lock_guard<std::mutex> box_lock(it->second->mutex);
  it->second->handler = handler;
}

void MailboxRuntime::UnregisterPeer(NodeId id) {
  Mailbox* box = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = mailboxes_.find(id);
    if (it == mailboxes_.end()) return;
    box = it->second.get();
  }
  std::unique_lock<std::mutex> box_lock(box->mutex);
  box->handler = nullptr;
  if (!box->queue.empty()) {
    dropped_.fetch_add(box->queue.size());
    ReleaseWork(box->queue.size());
    box->queue.clear();
  }
  // The caller will destroy the handler object; wait out any dispatch that
  // captured it before we nulled the pointer.
  box->cv.wait(box_lock, [&] { return !box->busy; });
}

void MailboxRuntime::Deliver(Message msg) {
  Mailbox* box = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = mailboxes_.find(msg.to);
    if (it != mailboxes_.end()) box = it->second.get();
  }
  if (box == nullptr) {
    CountDrop();
    P2PDB_LOG(kWarn) << "dropping message to unknown peer: " << msg.ToString();
    return;
  }
  {
    std::lock_guard<std::mutex> box_lock(box->mutex);
    if (box->handler == nullptr) {
      CountDrop();
      P2PDB_LOG(kWarn) << "dropping message to crashed peer: "
                       << msg.ToString();
      return;
    }
    in_flight_.fetch_add(1);
    if (obs::DetailedTimingEnabled() || msg.trace.active()) {
      msg.queued_micros = NowMicros();  // PeerLoop turns this into a wait.
    }
    box->queue.push_back(std::move(msg));
  }
  box->cv.notify_one();
}

void MailboxRuntime::DispatchFromTransport(Message&& msg) {
  Mailbox* box = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = mailboxes_.find(msg.to);
    if (it != mailboxes_.end()) box = it->second.get();
  }
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
    if (box->busy || !box->queue.empty()) {
      // Busy or backlogged: hand off to the peer's worker thread. The
      // transport read buffer is reused the moment this returns, so a
      // borrowed payload must become owned before it is queued.
      in_flight_.fetch_add(1);
      msg.payload.EnsureOwned();
      if (obs::DetailedTimingEnabled() || msg.trace.active()) {
        msg.queued_micros = NowMicros();
      }
      box->queue.push_back(std::move(msg));
      stats_.io().queued_dispatches.fetch_add(1);
      box->cv.notify_one();
      return;
    }
    box->busy = true;  // Claims dispatch rights; PeerLoop waits on !busy.
    handler = box->handler;
    in_flight_.fetch_add(1);
  }
  stats_.io().inline_dispatches.fetch_add(1);
  if (obs::DetailedTimingEnabled() || msg.trace.active()) {
    // Inline dispatch skipped the queue entirely: record the zero wait so
    // the wait distribution covers every delivered message, not just the
    // queued slow path.
    static obs::Histogram* wait =
        obs::Registry::Global().GetHistogram("net.mailbox_wait_micros");
    wait->Record(0);
  }
  BeginDispatch();
  handler->OnMessage(msg);
  EndDispatch();
  {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->busy = false;
  }
  box->cv.notify_all();
  ReleaseWork();
}

void MailboxRuntime::RunExclusive(NodeId id, const std::function<void()>& fn) {
  Mailbox* box = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = mailboxes_.find(id);
    if (it != mailboxes_.end()) box = it->second.get();
  }
  if (box == nullptr) {
    fn();  // Never-registered peer: no dispatch to exclude.
    return;
  }
  {
    std::unique_lock<std::mutex> box_lock(box->mutex);
    box->cv.wait(box_lock, [&] { return !box->busy; });
    box->busy = true;  // Claims dispatch rights; see DispatchFromTransport.
  }
  BeginDispatch();
  fn();
  EndDispatch();
  {
    std::lock_guard<std::mutex> box_lock(box->mutex);
    box->busy = false;
  }
  box->cv.notify_all();
}

void MailboxRuntime::ScheduleSend(uint64_t time_micros, Message msg) {
  in_flight_.fetch_add(1);  // Released when the timer hands it to Send.
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_queue_.emplace_back(time_micros, std::move(msg));
  }
  timer_cv_.notify_one();
}

uint64_t MailboxRuntime::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

void MailboxRuntime::PeerLoop(Mailbox* box) {
  for (;;) {
    Message msg;
    PeerHandler* handler = nullptr;
    {
      std::unique_lock<std::mutex> lock(box->mutex);
      // !busy: an inline transport dispatch may be inside the handler; per-
      // peer serialization means this worker must not start another one.
      box->cv.wait(lock, [&] {
        return stop_.load() || (!box->queue.empty() && !box->busy);
      });
      if (stop_.load()) return;  // Leftovers die with the runtime.
      msg = std::move(box->queue.front());
      box->queue.pop_front();
      handler = box->handler;
      box->busy = true;
    }
    if (msg.queued_micros != 0) {
      // Rewrite the enqueue stamp into the measured wait, so the handler's
      // trace span sees its mailbox residency directly.
      uint64_t now = NowMicros();
      msg.queued_micros = now >= msg.queued_micros ? now - msg.queued_micros
                                                   : 0;
      static obs::Histogram* wait =
          obs::Registry::Global().GetHistogram("net.mailbox_wait_micros");
      wait->Record(msg.queued_micros);
    }
    if (handler != nullptr) {
      BeginDispatch();
      handler->OnMessage(msg);
      EndDispatch();
    } else {
      CountDrop();  // Unregistered between enqueue and dispatch.
    }
    {
      std::lock_guard<std::mutex> lock(box->mutex);
      box->busy = false;
    }
    box->cv.notify_all();
    ReleaseWork();
  }
}

void MailboxRuntime::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mutex_);
  while (!stop_.load()) {
    if (timer_queue_.empty()) {
      timer_cv_.wait(lock);  // ScheduleSend and Shutdown notify.
      continue;
    }
    auto soonest = std::min_element(
        timer_queue_.begin(), timer_queue_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    uint64_t now = NowMicros();
    if (soonest->first > now) {
      timer_cv_.wait_for(lock,
                         std::chrono::microseconds(soonest->first - now));
      continue;
    }
    Message msg = std::move(soonest->second);
    timer_queue_.erase(soonest);
    lock.unlock();
    Send(std::move(msg));
    ReleaseWork();  // The ScheduleSend hold.
    lock.lock();
  }
}

std::string MailboxRuntime::PendingWorkReport() const {
  std::string report;
  {
    std::lock_guard<std::mutex> lock(mutex_);
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
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    if (!timer_queue_.empty()) {
      report +=
          "  " + std::to_string(timer_queue_.size()) + " pending timers\n";
    }
  }
  return report;
}

void MailboxRuntime::EnsureStarted() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return;
    started_ = true;
    stop_.store(false);
    for (auto& [id, box] : mailboxes_) {
      (void)id;
      threads_.emplace_back(&MailboxRuntime::PeerLoop, this, box.get());
    }
    timer_thread_ = std::thread(&MailboxRuntime::TimerLoop, this);
  }
  StartIo();
}

void MailboxRuntime::ReleaseWork(uint64_t units) {
  if (in_flight_.fetch_sub(units) != units) return;
  // Taking the lock orders this release against Run()'s predicate check, so
  // the notify cannot fall between that check and its wait.
  std::lock_guard<std::mutex> lock(idle_mutex_);
  idle_cv_.notify_all();
}

Status MailboxRuntime::Run() {
  EnsureStarted();
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
      "MailboxRuntime: quiescence not reached in time (in flight: " +
      std::to_string(in_flight_.load()) + ")\n" + pending);
}

Status MailboxRuntime::RunUntil(uint64_t time_micros) {
  EnsureStarted();
  // Wall clock is not controllable: let the delivery threads work until the
  // requested elapsed time, then hand control back (used by churn drivers to
  // crash a peer mid-run).
  std::this_thread::sleep_until(start_time_ +
                                std::chrono::microseconds(time_micros));
  if (uint64_t holds = in_flight_.load(); holds != 0) {
    // Expected under churn (that is what RunUntil is for), but say what is
    // still moving so a stuck fixpoint is debuggable from the log alone.
    P2PDB_LOG(kDebug) << "RunUntil deadline with " << holds
                      << " in-flight holds; pending work:\n"
                      << PendingWorkReport();
  }
  return Status::OK();
}

void MailboxRuntime::Shutdown() {
  StopIo();
  std::vector<std::thread> workers;
  std::thread timer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    started_ = false;
    stop_.store(true);
    workers.swap(threads_);
    timer.swap(timer_thread_);
    // Each notify is made under the lock its waiter checks stop_ under: a
    // bare notify can land between a worker's predicate check and its wait,
    // and that worker would then sleep through the join.
    for (auto& [id, box] : mailboxes_) {
      (void)id;
      std::lock_guard<std::mutex> box_lock(box->mutex);
      box->cv.notify_all();
    }
  }
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_cv_.notify_all();
  }
  for (std::thread& t : workers) t.join();
  if (timer.joinable()) timer.join();
}

}  // namespace p2pdb::net
