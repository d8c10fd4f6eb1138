// net::Reactor: the epoll engine under TcpRuntime, tested against raw
// sockets so kernel-level behavior (partial writes, refused connects, slow
// receivers) is exercised directly. Covers send-queue backpressure isolation
// (a slow reader wedges only its own senders), writev batching correctness
// across frame boundaries, exactly-once frame accounting through a mid-write
// teardown, and a many-peer TcpRuntime fixpoint smoke.
#include "src/net/reactor.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "src/core/session.h"
#include "src/net/tcp_runtime.h"
#include "src/util/log_capture.h"
#include "src/workload/scenario.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define P2PDB_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define P2PDB_SANITIZED 1
#endif

namespace p2pdb::net {
namespace {

using namespace std::chrono_literals;

/// Handler recording per-token accounting; every upcall is counted so tests
/// can assert the exactly-once frame contract (written + dropped = accepted).
class RecordingHandler : public Reactor::Handler {
 public:
  bool OnRead(Connection* conn, const uint8_t* data, size_t size) override {
    (void)conn;
    (void)data;
    read_bytes_.fetch_add(size);
    return true;
  }
  void OnWritten(Connection* conn, size_t frames) override {
    std::lock_guard<std::mutex> lock(mutex_);
    written_[conn->token()] += frames;
  }
  void OnClose(Connection* conn, size_t dropped_frames) override {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped_[conn->token()] += dropped_frames;
    ++closes_;
  }

  size_t written(uint64_t token) {
    std::lock_guard<std::mutex> lock(mutex_);
    return written_[token];
  }
  size_t dropped(uint64_t token) {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_[token];
  }
  size_t closes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return closes_;
  }

 private:
  std::mutex mutex_;
  std::map<uint64_t, size_t> written_;
  std::map<uint64_t, size_t> dropped_;
  size_t closes_ = 0;
  std::atomic<size_t> read_bytes_{0};
};

/// A plain kernel listener the reactor connects to; the test decides whether
/// and when to accept/read, which is how "slow receiver" is modeled.
struct RawListener {
  int fd = -1;
  uint16_t port = 0;

  static RawListener Open(int rcvbuf_bytes = 0) {
    RawListener l;
    l.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(l.fd, 0);
    if (rcvbuf_bytes > 0) {
      // Set before listen so accepted sockets inherit the tiny window.
      ::setsockopt(l.fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(l.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(l.fd, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        ::getsockname(l.fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    l.port = ntohs(addr.sin_port);
    return l;
  }

  int Accept() const { return ::accept(fd, nullptr, nullptr); }

  ~RawListener() {
    if (fd >= 0) ::close(fd);
  }
};

bool WaitUntil(const std::function<bool()>& cond,
               std::chrono::milliseconds deadline = 10'000ms) {
  auto end = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < end) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

TEST(ReactorTest, BackpressureIsolatesSlowReceiver) {
  IoCounters counters;
  RecordingHandler handler;
  Reactor::Options options;
  options.workers = 1;  // One loop serving both connections: the wedge would
                        // be visible immediately if a slow one could block it.
  options.send_queue_limit = 64 * 1024;
  options.send_buffer_bytes = 8 * 1024;
  options.counters = &counters;
  Reactor reactor(options, &handler);

  RawListener slow = RawListener::Open(/*rcvbuf_bytes=*/4 * 1024);
  RawListener fast = RawListener::Open();

  // Drain the fast endpoint continuously.
  std::atomic<bool> stop_drain{false};
  std::atomic<size_t> fast_received{0};
  std::thread drainer([&] {
    int conn = fast.Accept();
    ASSERT_GE(conn, 0);
    char buf[16 * 1024];
    while (!stop_drain.load()) {
      ssize_t n = ::recv(conn, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        fast_received.fetch_add(static_cast<size_t>(n));
      } else {
        std::this_thread::sleep_for(1ms);
      }
    }
    ::close(conn);
  });

  auto slow_conn = reactor.Connect("127.0.0.1", slow.port, /*token=*/1);
  auto fast_conn = reactor.Connect("127.0.0.1", fast.port, /*token=*/2);

  // A sender hammering the never-accepted endpoint: the kernel buffers fill,
  // then the bounded send queue, then Enqueue blocks this thread.
  const std::vector<uint8_t> chunk(1024, 0xab);
  std::atomic<size_t> slow_accepted{0};
  std::atomic<bool> sender_done{false};
  std::thread sender([&] {
    for (int i = 0; i < 4096; ++i) {
      if (!slow_conn->Enqueue(std::vector<uint8_t>(chunk))) break;
      slow_accepted.fetch_add(1);
    }
    sender_done.store(true);
  });
  // Wait until the sender is parked on a full queue: `!sender_done` alone
  // also holds for a sender that has not started, which would leave nothing
  // queued to drop at close.
  EXPECT_TRUE(WaitUntil([&] {
    return slow_accepted.load() >= 1 &&
           slow_conn->queued_bytes() >=
               options.send_queue_limit - chunk.size();
  }));

  // The fast connection keeps flowing while the slow sender is wedged.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fast_conn->Enqueue(std::vector<uint8_t>(chunk)));
  }
  EXPECT_TRUE(WaitUntil([&] { return fast_received.load() >= 50 * 1024; }));
  EXPECT_FALSE(sender_done.load());  // 4 MB cannot fit in ~72 KB of buffers.

  // Closing the slow connection unblocks the parked sender.
  slow_conn->RequestClose();
  EXPECT_TRUE(WaitUntil([&] { return sender_done.load(); }));
  sender.join();

  // Exactly-once accounting: every frame Enqueue accepted was reported
  // written or dropped, never both, never lost.
  EXPECT_TRUE(WaitUntil([&] {
    return handler.written(1) + handler.dropped(1) == slow_accepted.load();
  }));
  EXPECT_GT(handler.dropped(1), 0u);
  EXPECT_GT(counters.send_queue_hwm_bytes.load(), options.send_queue_limit / 2);

  stop_drain.store(true);
  drainer.join();
  reactor.Stop();
}

TEST(ReactorTest, WritevBatchesSmallFramesAndPreservesBoundaries) {
  IoCounters counters;
  RecordingHandler handler;
  Reactor::Options options;
  options.workers = 1;
  options.send_buffer_bytes = 16 * 1024;  // Forces partial writev results.
  options.counters = &counters;
  Reactor reactor(options, &handler);

  RawListener sink = RawListener::Open();
  std::vector<uint8_t> received;
  std::atomic<bool> done_receiving{false};
  size_t expected_total = 0;
  constexpr int kFrames = 5000;

  // Varied sizes so writev boundaries land mid-frame at every alignment.
  std::vector<uint8_t> expected;
  auto conn = reactor.Connect("127.0.0.1", sink.port, /*token=*/7);
  std::thread receiver([&] {
    int fd = sink.Accept();
    ASSERT_GE(fd, 0);
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      received.insert(received.end(), buf, buf + n);
    }
    ::close(fd);
    done_receiving.store(true);
  });

  for (int i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> frame(5 + (i % 117), static_cast<uint8_t>(i));
    expected.insert(expected.end(), frame.begin(), frame.end());
    expected_total += frame.size();
    ASSERT_TRUE(conn->Enqueue(std::move(frame)));
  }
  EXPECT_TRUE(
      WaitUntil([&] { return handler.written(7) == kFrames; }, 30'000ms));
  conn->RequestClose();  // Receiver sees EOF once everything is written.
  EXPECT_TRUE(WaitUntil([&] { return done_receiving.load(); }, 30'000ms));
  receiver.join();

  // Correctness across frame boundaries: the stream is the exact
  // concatenation of the enqueued frames.
  ASSERT_EQ(received.size(), expected_total);
  EXPECT_EQ(received, expected);

  // The point of writev: far fewer syscalls than frames.
  EXPECT_EQ(counters.writev_frames.load(), static_cast<uint64_t>(kFrames));
  EXPECT_LT(counters.writev_calls.load(), static_cast<uint64_t>(kFrames));
  EXPECT_GT(counters.FramesPerWritev(), 1.0);
  reactor.Stop();
}

TEST(ReactorTest, MidWriteTeardownReportsQueuedFramesDropped) {
  IoCounters counters;
  RecordingHandler handler;
  Reactor::Options options;
  options.workers = 1;
  options.send_queue_limit = 64u << 20;  // Accept everything; block nothing.
  options.send_buffer_bytes = 4 * 1024;
  options.counters = &counters;
  Reactor reactor(options, &handler);

  RawListener stuck = RawListener::Open(/*rcvbuf_bytes=*/4 * 1024);
  auto conn = reactor.Connect("127.0.0.1", stuck.port, /*token=*/3);

  constexpr size_t kFrames = 20;
  for (size_t i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> frame(32 * 1024, static_cast<uint8_t>(i));
    ASSERT_TRUE(conn->Enqueue(std::move(frame)));
  }
  // Wait until the write is genuinely mid-frame: some bytes reached the
  // kernel but the queue is still loaded.
  ASSERT_TRUE(WaitUntil([&] { return counters.writev_bytes.load() > 0; }));
  ASSERT_GT(conn->queued_bytes(), 0u);

  conn->RequestClose();
  ASSERT_TRUE(WaitUntil([&] { return handler.closes() == 1; }));
  // The partially-written front frame never arrived whole, so it counts as
  // dropped; accounting still covers every accepted frame exactly once.
  EXPECT_GE(handler.dropped(3), 1u);
  EXPECT_EQ(handler.written(3) + handler.dropped(3), kFrames);
  reactor.Stop();
}

TEST(ReactorTest, ConnectRefusedDropsQueuedFrames) {
  RecordingHandler handler;
  Reactor reactor(Reactor::Options{}, &handler);

  uint16_t dead_port;
  {
    RawListener probe = RawListener::Open();
    dead_port = probe.port;  // Closed again before we connect.
  }
  auto conn = reactor.Connect("127.0.0.1", dead_port, /*token=*/9);
  // Whether the frame is accepted races with the kernel refusing the
  // connect (sanitizer slowdown can let the refusal win): an accepted frame
  // must be reported dropped exactly once; a refused one stays with the
  // caller and is never reported.
  bool accepted = conn->Enqueue({1, 2, 3});
  EXPECT_TRUE(WaitUntil([&] { return conn->closed(); }));
  EXPECT_TRUE(WaitUntil([&] { return handler.closes() == 1; }));
  EXPECT_EQ(handler.dropped(9), accepted ? 1u : 0u);
  std::vector<uint8_t> late = {4, 5, 6};
  EXPECT_FALSE(conn->Enqueue(std::move(late)));  // Closed connection refuses.
  reactor.Stop();
}

// --- Many-peer fixpoint smoke ---------------------------------------------

#if defined(P2PDB_SANITIZED)
constexpr int kSmokeNodes = 96;  // Sanitizers multiply cost; keep CI fast.
#else
constexpr int kSmokeNodes = 1000;
#endif

TEST(ReactorTest, ManyPeerTcpFixpointSmoke) {
  // The reactor's reason to exist: a four-digit peer count on one host. The
  // old thread-per-connection transport needed a thread per socket; here a
  // single event loop drives every listener and connection, and the update
  // protocol still reaches a quiescent, closed fixpoint.
  workload::ScenarioOptions scenario;
  scenario.topology.kind = workload::TopologySpec::Kind::kTree;
  scenario.topology.nodes = kSmokeNodes;
  scenario.topology.fanout = 8;
  scenario.records_per_node = 2;
  auto system = workload::BuildScenario(scenario);
  ASSERT_TRUE(system.ok());

  TcpRuntime::Options options;
  options.timeout = std::chrono::milliseconds(120'000);
  TcpRuntime rt(options);
  core::Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  EXPECT_TRUE(session.AllClosed());
  EXPECT_EQ(rt.dropped_count(), 0u);
  EXPECT_GT(rt.stats().total_messages(), static_cast<uint64_t>(kSmokeNodes));
  // The event-driven dispatch path actually ran.
  EXPECT_GT(rt.stats().io().inline_dispatches.load() +
                rt.stats().io().queued_dispatches.load(),
            0u);
}

}  // namespace
}  // namespace p2pdb::net
