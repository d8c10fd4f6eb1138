#include "src/net/reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace p2pdb::net {

namespace {

/// Frames batched into one writev call (well under IOV_MAX everywhere).
constexpr size_t kMaxIovPerWritev = 64;

/// Per-worker read buffer; one recv can carry many coalesced small frames.
constexpr size_t kReadBufferBytes = 256 * 1024;

/// Consecutive recv calls per EPOLLIN before yielding to other connections
/// (level-triggered epoll re-arms, so fairness costs no correctness).
constexpr int kMaxReadsPerEvent = 4;

int MakeSocket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

bool ParseAddr(const std::string& host, uint16_t port, sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Makes close() send a reset instead of a FIN. An accepted socket only
/// carries credit frames back, and a closing runtime consumes nothing more,
/// so losing unsent credits changes no accounting (the sender's OnClose
/// releases those holds). Whichever end closes first, the pair then ends
/// with a reset and leaves no socket in TIME_WAIT: a loop of short-lived
/// runtimes would otherwise hold ports for 60 s each until port-0 listeners
/// fail to bind.
void SetAbortiveClose(int fd) {
  linger abort{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
}

}  // namespace

/// The worker whose loop the current thread is running, if any. Lets
/// Enqueue distinguish reactor threads (never block on backpressure) and
/// same-worker sends (flush via the dirty list, no eventfd syscall).
static thread_local void* g_current_worker = nullptr;

// --- Connection -------------------------------------------------------------

bool Connection::Enqueue(std::vector<uint8_t>&& frame) {
  Reactor* reactor = reactor_;
  const bool on_reactor_thread = g_current_worker != nullptr;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (state_ == State::kClosed) return false;
    if (!on_reactor_thread) {
      // Backpressure: park this sender (only) until the worker drains the
      // queue below the limit or the connection dies. Reactor threads fall
      // through — an event loop blocking on another loop's queue could
      // deadlock, so their queues may transiently exceed the limit.
      drained_.wait(lock, [&] {
        return state_ == State::kClosed ||
               sendq_bytes_ < reactor->options_.send_queue_limit;
      });
      if (state_ == State::kClosed) return false;
    }
    sendq_bytes_ += frame.size();
    sendq_.push_back(std::move(frame));
    if (IoCounters* k = reactor->options_.counters) {
      k->RecordQueueDepth(sendq_bytes_);
    }
    // Distribution, not just high-water mark: no clock read, so ungated.
    static obs::Histogram* depth =
        obs::Registry::Global().GetHistogram("net.sendq_depth_bytes");
    depth->Record(sendq_bytes_);
    if (flush_armed_) return true;  // The worker already knows.
    flush_armed_ = true;
  }
  reactor->NoteQueued(this);
  return true;
}

void Connection::RequestClose() {
  Reactor* reactor = reactor_;
  auto self = shared_from_this();
  Reactor::Worker* w = reactor->workers_[worker_].get();
  if (!reactor->Post(w, [reactor, w, self] { reactor->CloseConn(w, self); })) {
    // Reactor stopped: workers are joined, closing here is single-threaded.
    reactor->CloseConn(w, self);
  }
}

size_t Connection::queued_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sendq_bytes_;
}

// --- Reactor lifecycle ------------------------------------------------------

Reactor::Reactor(Options options, Handler* handler)
    : options_(options), handler_(handler) {
  int n = options_.workers > 0
              ? options_.workers
              : static_cast<int>(
                    std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    w->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    w->read_buffer.resize(kReadBufferBytes);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->event_fd;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->event_fd, &ev);
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    w->thread = std::thread(&Reactor::WorkerLoop, this, w.get());
  }
}

Reactor::~Reactor() { Stop(); }

void Reactor::Stop() {
  stop_.store(true);
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      Wake(w.get());
      w->thread.join();
    }
  }
  // Single-threaded from here: tear down whatever is still open. OnClose
  // fires for each connection so queued-frame accounting stays exact.
  for (auto& w : workers_) {
    RunTasks(w.get());  // Post() stopped accepting; drain the stragglers.
    for (auto& [fd, listener] : w->listeners) {
      ::close(fd);
      listener->fd = -1;
    }
    w->listeners.clear();
    while (!w->conns.empty()) {
      CloseConn(w.get(), w->conns.begin()->second);
    }
    if (w->epoll_fd >= 0) {
      ::close(w->epoll_fd);
      w->epoll_fd = -1;
    }
    if (w->event_fd >= 0) {
      ::close(w->event_fd);
      w->event_fd = -1;
    }
  }
  std::lock_guard<std::mutex> lock(registry_mutex_);
  listeners_by_token_.clear();
  conns_by_token_.clear();
}

int Reactor::PickWorker() {
  return static_cast<int>(next_worker_.fetch_add(1) % workers_.size());
}

bool Reactor::Post(Worker* w, std::function<void()> fn) {
  if (stop_.load()) return false;
  {
    std::lock_guard<std::mutex> lock(w->task_mutex);
    w->tasks.push_back(std::move(fn));
  }
  Wake(w);
  return true;
}

void Reactor::Wake(Worker* w) {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(w->event_fd, &one, sizeof(one));
}

void Reactor::NoteQueued(Connection* c) {
  Worker* w = workers_[c->worker_].get();
  if (g_current_worker == w) {
    // Same-thread send (e.g. a handler replying from an inline dispatch):
    // the loop flushes the dirty list before sleeping — no syscall needed.
    w->dirty.push_back(c->shared_from_this());
    return;
  }
  auto self = c->shared_from_this();
  if (!Post(w, [this, w, self] { FlushConn(w, self); })) {
    // Stopping: Stop()'s teardown pass will drop the queued frames.
  }
}

// --- Listeners and connects -------------------------------------------------

Result<uint16_t> Reactor::Listen(const std::string& host, uint64_t token,
                                 uint16_t port) {
  if (stop_.load()) return Status::Internal("reactor is stopped");
  sockaddr_in addr;
  if (!ParseAddr(host, port, &addr)) {
    return Status::InvalidArgument("bad listen host " + host);
  }
  int fd = MakeSocket();
  if (fd < 0) return Status::Internal("socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    ::close(fd);
    return Status::Internal("cannot listen on " + host + ": " +
                            std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::Internal("getsockname failed");
  }

  auto listener = std::make_shared<Listener>();
  listener->fd = fd;
  listener->token = token;
  listener->port = ntohs(addr.sin_port);
  listener->worker = PickWorker();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    if (listeners_by_token_.count(token) > 0) {
      ::close(fd);
      return Status::Internal("token already listening");
    }
    listeners_by_token_[token] = listener;
  }
  Worker* w = workers_[listener->worker].get();
  if (!Post(w, [w, listener] {
        w->listeners[listener->fd] = listener;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = listener->fd;
        ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, listener->fd, &ev);
      })) {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    listeners_by_token_.erase(token);
    ::close(fd);
    return Status::Internal("reactor is stopped");
  }
  return listener->port;
}

std::shared_ptr<Connection> Reactor::Connect(const std::string& host,
                                             uint16_t port, uint64_t token) {
  auto c = std::make_shared<Connection>();
  c->reactor_ = this;
  c->token_ = token;
  c->inbound_ = false;
  if (IoCounters* k = options_.counters) k->connects.fetch_add(1);

  auto fail = [&](const char* what) {
    if (IoCounters* k = options_.counters) k->connect_failures.fetch_add(1);
    P2PDB_LOG(kDebug) << "connect to " << host << ":" << port << " " << what;
    c->state_ = Connection::State::kClosed;
    c->closed_.store(true);
    return c;
  };
  if (stop_.load()) return fail("rejected: reactor stopped");
  sockaddr_in addr;
  if (!ParseAddr(host, port, &addr)) return fail("failed: bad address");
  int fd = MakeSocket();
  if (fd < 0) return fail("failed: no socket");
  SetNoDelay(fd);
  if (options_.send_buffer_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                 sizeof(options_.send_buffer_bytes));
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    c->state_ = Connection::State::kOpen;
  } else if (errno == EINPROGRESS) {
    c->state_ = Connection::State::kConnecting;
    c->connect_deadline_ =
        std::chrono::steady_clock::now() + options_.connect_timeout;
  } else {
    ::close(fd);
    return fail("failed");
  }
  c->fd_ = fd;
  c->worker_ = PickWorker();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    conns_by_token_[token].push_back(c);
  }
  Worker* w = workers_[c->worker_].get();
  if (!Post(w, [this, w, c] { AdoptConn(w, c); })) {
    ::close(fd);
    c->fd_ = -1;
    std::lock_guard<std::mutex> lock(c->mutex_);
    c->state_ = Connection::State::kClosed;
    c->closed_.store(true);
  }
  return c;
}

void Reactor::AdoptConn(Worker* w, const std::shared_ptr<Connection>& c) {
  if (stop_.load() || c->closed()) return;
  w->conns[c->fd_] = c;
  epoll_event ev{};
  ev.data.fd = c->fd_;
  bool connecting;
  {
    std::lock_guard<std::mutex> lock(c->mutex_);
    connecting = c->state_ == Connection::State::kConnecting;
  }
  if (connecting) {
    // EPOLLOUT reports connect completion (or failure).
    ev.events = EPOLLIN | EPOLLOUT;
    c->want_write_ = true;
    w->connecting.push_back(c);
  } else {
    ev.events = EPOLLIN;
  }
  ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, c->fd_, &ev);
}

void Reactor::CloseToken(uint64_t token) {
  std::shared_ptr<Listener> listener;
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto lit = listeners_by_token_.find(token);
    if (lit != listeners_by_token_.end()) {
      listener = lit->second;
      listeners_by_token_.erase(lit);
    }
    auto cit = conns_by_token_.find(token);
    if (cit != conns_by_token_.end()) {
      for (const auto& weak : cit->second) {
        if (auto c = weak.lock()) conns.push_back(std::move(c));
      }
      conns_by_token_.erase(cit);
    }
  }

  // Tear everything down on the owning workers (only the owner may close an
  // fd — that is what makes fd reuse race-free) and wait until it is done,
  // so the caller observes "connects to the old port are refused".
  struct Latch {
    std::mutex m;
    std::condition_variable cv;
    size_t remaining;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = conns.size() + (listener != nullptr ? 1 : 0);
  if (latch->remaining == 0) return;
  auto done = [latch] {
    std::lock_guard<std::mutex> lock(latch->m);
    if (--latch->remaining == 0) latch->cv.notify_all();
  };

  if (listener != nullptr) {
    Worker* w = workers_[listener->worker].get();
    if (!Post(w, [w, listener, done] {
          w->listeners.erase(listener->fd);
          ::epoll_ctl(w->epoll_fd, EPOLL_CTL_DEL, listener->fd, nullptr);
          ::close(listener->fd);
          listener->fd = -1;
          done();
        })) {
      if (listener->fd >= 0) ::close(listener->fd);
      listener->fd = -1;
      done();
    }
  }
  for (const auto& c : conns) {
    Worker* w = workers_[c->worker_].get();
    if (!Post(w, [this, w, c, done] {
          CloseConn(w, c);
          done();
        })) {
      CloseConn(w, c);  // Stopped: single-threaded teardown.
      done();
    }
  }
  std::unique_lock<std::mutex> lock(latch->m);
  latch->cv.wait(lock, [&] { return latch->remaining == 0; });
}

// --- Event loop -------------------------------------------------------------

void Reactor::WorkerLoop(Worker* w) {
  g_current_worker = w;
  std::vector<epoll_event> events(256);
  while (!stop_.load()) {
    int timeout = NextTimeoutMillis(w);
    int n = ::epoll_wait(w->epoll_fd, events.data(),
                         static_cast<int>(events.size()), timeout);
    if (IoCounters* k = options_.counters) k->epoll_wakeups.fetch_add(1);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == w->event_fd) {
        uint64_t drain;
        while (::read(w->event_fd, &drain, sizeof(drain)) > 0) {
        }
        RunTasks(w);
        continue;
      }
      auto lit = w->listeners.find(fd);
      if (lit != w->listeners.end()) {
        AcceptReady(w, lit->second);
        continue;
      }
      auto cit = w->conns.find(fd);
      if (cit == w->conns.end()) continue;  // Closed earlier in this batch.
      HandleConnEvent(w, cit->second, events[i].events);
    }
    // Flush sends queued by handlers on this thread during the batch.
    for (size_t i = 0; i < w->dirty.size(); ++i) {
      std::shared_ptr<Connection> c = w->dirty[i];
      FlushConn(w, c);
    }
    w->dirty.clear();
    CheckConnectDeadlines(w);
  }
  g_current_worker = nullptr;
}

void Reactor::RunTasks(Worker* w) {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(w->task_mutex);
    tasks.swap(w->tasks);
  }
  for (auto& task : tasks) task();
}

int Reactor::NextTimeoutMillis(Worker* w) {
  if (w->connecting.empty()) return -1;
  auto now = std::chrono::steady_clock::now();
  auto soonest = w->connecting.front()->connect_deadline_;
  for (const auto& c : w->connecting) {
    soonest = std::min(soonest, c->connect_deadline_);
  }
  auto delta =
      std::chrono::duration_cast<std::chrono::milliseconds>(soonest - now)
          .count();
  return static_cast<int>(std::clamp<long long>(delta, 0, 60'000));
}

void Reactor::CheckConnectDeadlines(Worker* w) {
  if (w->connecting.empty()) return;
  auto now = std::chrono::steady_clock::now();
  // CloseConn edits w->connecting; collect first.
  std::vector<std::shared_ptr<Connection>> expired;
  for (const auto& c : w->connecting) {
    if (now >= c->connect_deadline_ && !c->closed()) expired.push_back(c);
  }
  for (const auto& c : expired) {
    if (IoCounters* k = options_.counters) k->connect_failures.fetch_add(1);
    P2PDB_LOG(kDebug) << "connect timed out (token " << c->token_ << ")";
    CloseConn(w, c);
  }
}

void Reactor::AcceptReady(Worker* w, const std::shared_ptr<Listener>& l) {
  for (;;) {
    int fd = ::accept4(l->fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or the listener just closed.
    SetNoDelay(fd);
    SetAbortiveClose(fd);
    if (IoCounters* k = options_.counters) k->accepts.fetch_add(1);
    auto c = std::make_shared<Connection>();
    c->reactor_ = this;
    c->fd_ = fd;
    // Accepted connections stay on the accepting worker: registration is
    // lock-free and reads for one listener's peers share cache locality.
    // Load still spreads because listeners are round-robined over workers.
    c->worker_ = w->index;
    c->token_ = l->token;
    c->inbound_ = true;
    c->state_ = Connection::State::kOpen;
    {
      std::lock_guard<std::mutex> lock(registry_mutex_);
      conns_by_token_[l->token].push_back(c);
    }
    w->conns[fd] = c;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  }
}

void Reactor::HandleConnEvent(Worker* w, std::shared_ptr<Connection> c,
                              uint32_t events) {
  bool connecting;
  {
    std::lock_guard<std::mutex> lock(c->mutex_);
    connecting = c->state_ == Connection::State::kConnecting;
  }
  if (connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(c->fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      if (IoCounters* k = options_.counters) k->connect_failures.fetch_add(1);
      CloseConn(w, c);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(c->mutex_);
      c->state_ = Connection::State::kOpen;
    }
    std::erase(w->connecting, c);
    UpdateWriteInterest(w, c.get(), false);
    FlushConn(w, c);  // Frames queued while the connect was in flight.
    return;
  }
  if (events & EPOLLIN) {
    ReadReady(w, c);
    if (c->closed()) return;
  }
  if (events & EPOLLOUT) {
    FlushConn(w, c);
    if (c->closed()) return;
  }
  if ((events & (EPOLLERR | EPOLLHUP)) && !(events & EPOLLIN)) {
    CloseConn(w, c);
  }
}

void Reactor::ReadReady(Worker* w, const std::shared_ptr<Connection>& c) {
  uint8_t* buf = w->read_buffer.data();
  const size_t cap = w->read_buffer.size();
  for (int round = 0; round < kMaxReadsPerEvent; ++round) {
    ssize_t n = ::recv(c->fd_, buf, cap, 0);
    if (n > 0) {
      if (!handler_->OnRead(c.get(), buf, static_cast<size_t>(n))) {
        CloseConn(w, c);
        return;
      }
      if (static_cast<size_t>(n) < cap) return;  // Drained the kernel buffer.
      continue;
    }
    if (n == 0) {  // Clean close by the peer.
      CloseConn(w, c);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(w, c);  // Reset — the peer crashed.
    return;
  }
  // Budget exhausted; level-triggered epoll re-reports the remainder.
}

void Reactor::FlushConn(Worker* w, const std::shared_ptr<Connection>& c) {
  for (;;) {
    if (c->closed()) return;
    iovec iov[kMaxIovPerWritev];
    size_t niov = 0;
    size_t want_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(c->mutex_);
      if (c->state_ != Connection::State::kOpen) return;
      if (c->sendq_.empty()) {
        c->flush_armed_ = false;
        if (c->want_write_) UpdateWriteInterest(w, c.get(), false);
        return;
      }
      size_t offset = c->front_offset_;
      for (const std::vector<uint8_t>& frame : c->sendq_) {
        if (niov == kMaxIovPerWritev) break;
        iov[niov].iov_base =
            const_cast<uint8_t*>(frame.data()) + offset;
        iov[niov].iov_len = frame.size() - offset;
        want_bytes += iov[niov].iov_len;
        ++niov;
        offset = 0;
      }
    }
    // The deque entries referenced by iov are stable outside the lock: other
    // threads only push_back (std::deque never moves existing elements) and
    // only this worker pops.
    // writev by another name: sendmsg takes MSG_NOSIGNAL, so writing to a
    // peer that has already closed fails with EPIPE below instead of
    // raising SIGPIPE, which would kill the whole process.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    ssize_t n = ::sendmsg(c->fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c->want_write_) UpdateWriteInterest(w, c.get(), true);
        return;
      }
      CloseConn(w, c);  // Reset/EPIPE: the peer is gone.
      return;
    }
    if (IoCounters* k = options_.counters) {
      k->writev_calls.fetch_add(1);
      k->writev_bytes.fetch_add(static_cast<uint64_t>(n));
    }
    size_t written_frames = 0;
    bool below_limit = false;
    {
      std::lock_guard<std::mutex> lock(c->mutex_);
      size_t remaining = static_cast<size_t>(n);
      while (remaining > 0) {
        std::vector<uint8_t>& front = c->sendq_.front();
        size_t avail = front.size() - c->front_offset_;
        if (remaining >= avail) {
          remaining -= avail;
          c->sendq_bytes_ -= front.size();
          c->sendq_.pop_front();
          c->front_offset_ = 0;
          ++written_frames;
        } else {
          c->front_offset_ += remaining;
          remaining = 0;
        }
      }
      below_limit = c->sendq_bytes_ < options_.send_queue_limit;
    }
    if (below_limit) c->drained_.notify_all();
    if (IoCounters* k = options_.counters) {
      k->writev_frames.fetch_add(written_frames);
    }
    if (written_frames > 0) handler_->OnWritten(c.get(), written_frames);
    if (static_cast<size_t>(n) < want_bytes) {
      // Kernel buffer is full; EPOLLOUT will resume the drain.
      if (!c->want_write_) UpdateWriteInterest(w, c.get(), true);
      return;
    }
  }
}

void Reactor::CloseConn(Worker* w, std::shared_ptr<Connection> c) {
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(c->mutex_);
    if (c->state_ == Connection::State::kClosed) return;
    c->state_ = Connection::State::kClosed;
    // A partially written front frame never arrived whole: count it dropped.
    dropped = c->sendq_.size();
    c->sendq_.clear();
    c->sendq_bytes_ = 0;
    c->closed_.store(true);
  }
  c->drained_.notify_all();
  if (c->fd_ >= 0) {
    ::epoll_ctl(w->epoll_fd, EPOLL_CTL_DEL, c->fd_, nullptr);
    ::close(c->fd_);
    w->conns.erase(c->fd_);
    c->fd_ = -1;
  }
  std::erase(w->connecting, c);
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = conns_by_token_.find(c->token_);
    if (it != conns_by_token_.end()) {
      auto& vec = it->second;
      std::erase_if(vec, [&](const std::weak_ptr<Connection>& weak) {
        auto locked = weak.lock();
        return locked == nullptr || locked == c;
      });
      if (vec.empty()) conns_by_token_.erase(it);
    }
  }
  handler_->OnClose(c.get(), dropped);
}

void Reactor::UpdateWriteInterest(Worker* w, Connection* c, bool want) {
  if (c->want_write_ == want || c->fd_ < 0) return;
  c->want_write_ = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = c->fd_;
  ::epoll_ctl(w->epoll_fd, EPOLL_CTL_MOD, c->fd_, &ev);
}

}  // namespace p2pdb::net
