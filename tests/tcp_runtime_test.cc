// TcpRuntime: every message crosses a real loopback socket. Covers the
// dispatch rule (the thread that claims a mailbox drains it, so the runtime
// needs no thread per peer), exact quiescence and its deadline report, raw
// delivery and reconnect semantics, kernel-sourced dropped-message accounting
// (UnregisterPeer is a socket close, not a flag), cross-runtime protocol
// parity (Sim and Tcp reach null-isomorphic fixpoints on the paper's running
// example), and the crash/restart churn script driven over TCP.
#include "src/net/tcp_runtime.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/session.h"
#include "src/net/sim_runtime.h"
#include "src/relational/null_iso.h"
#include "src/storage/storage_manager.h"
#include "src/util/log_capture.h"
#include "src/workload/scenario.h"

namespace p2pdb::net {
namespace {

class CountingPeer : public PeerHandler {
 public:
  CountingPeer(NodeId id, Runtime* rt, int replies_left)
      : id_(id), runtime_(rt), replies_left_(replies_left) {}

  void OnMessage(const Message& msg) override {
    ++received_;
    if (replies_left_ > 0) {
      --replies_left_;
      Message reply;
      reply.type = msg.type;
      reply.from = id_;
      reply.to = msg.from;
      reply.payload = msg.payload;
      runtime_->Send(reply);
    }
  }

  int received() const { return received_.load(); }

 private:
  NodeId id_;
  Runtime* runtime_;
  int replies_left_;
  std::atomic<int> received_{0};
};

Message Make(NodeId from, NodeId to, std::vector<uint8_t> payload = {1, 2, 3}) {
  Message m;
  m.type = MessageType::kUpdateStart;
  m.from = from;
  m.to = to;
  m.payload = std::move(payload);
  return m;
}

/// The ids of this process's threads.
std::set<std::string> ThreadIds() {
  std::set<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

// --- Dispatch: the thread that claims a mailbox drains it ----------------

TEST(TcpRuntimeTest, PeersAddNoThreadsBeyondTheReactor) {
  // A sanitizer runtime may start a helper thread on the process's first
  // thread creation; let that happen before the baseline. Threads that
  // exit are only ever missing from the later set, so the set difference
  // counts exactly the threads the runtime started.
  std::thread([] {}).join();
  const std::set<std::string> before = ThreadIds();
  TcpRuntime::Options options;
  options.io_workers = 2;
  TcpRuntime rt(options);
  std::vector<std::unique_ptr<CountingPeer>> peers;
  for (NodeId i = 0; i < 64; ++i) {
    peers.push_back(std::make_unique<CountingPeer>(i, &rt, 1));
    rt.RegisterPeer(i, peers.back().get());
  }
  for (NodeId i = 1; i < 64; ++i) rt.Send(Make(0, i));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(peers[0]->received(), 63);  // One reply per peer.

  size_t added = 0;
  for (const std::string& id : ThreadIds()) added += before.count(id) == 0;
  EXPECT_EQ(added, static_cast<size_t>(options.io_workers))
      << "the reactor workers, and nothing per peer";
}

TEST(TcpRuntimeTest, DeliversOverRealSockets) {
  TcpRuntime rt;
  CountingPeer a(0, &rt, 0), b(1, &rt, 3);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  EXPECT_NE(rt.ListenPort(0), 0);
  EXPECT_NE(rt.ListenPort(1), 0);
  EXPECT_NE(rt.ListenPort(0), rt.ListenPort(1));  // One endpoint per peer.
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(b.received(), 1);
  EXPECT_EQ(a.received(), 1);  // One reply.
  EXPECT_EQ(rt.dropped_count(), 0u);
}

TEST(TcpRuntimeTest, PingPongUntilRepliesExhausted) {
  TcpRuntime rt;
  CountingPeer a(0, &rt, 25), b(1, &rt, 25);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(a.received() + b.received(), 51);  // 1 initial + 50 replies.
}

TEST(TcpRuntimeTest, StarFanOutAndReplies) {
  TcpRuntime rt;
  std::vector<std::unique_ptr<CountingPeer>> peers;
  // Peer 0 never replies; peers 1..7 reply exactly once.
  peers.push_back(std::make_unique<CountingPeer>(0, &rt, 0));
  rt.RegisterPeer(0, peers.back().get());
  for (NodeId i = 1; i < 8; ++i) {
    peers.push_back(std::make_unique<CountingPeer>(i, &rt, 1));
    rt.RegisterPeer(i, peers.back().get());
  }
  for (NodeId i = 1; i < 8; ++i) rt.Send(Make(0, i));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(peers[0]->received(), 7);  // One reply per spoke.
  for (NodeId i = 1; i < 8; ++i) EXPECT_EQ(peers[i]->received(), 1);
}

TEST(TcpRuntimeTest, RegisterWhileRunningDelivers) {
  TcpRuntime rt;
  CountingPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());  // Connections up, traffic has flowed.
  CountingPeer late(7, &rt, 0);
  rt.RegisterPeer(7, &late);
  rt.Send(Make(0, 7));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(late.received(), 1);
}

TEST(TcpRuntimeTest, RunGivesUpAtDeadlineAndNamesPendingWork) {
  TcpRuntime::Options options;
  options.timeout = std::chrono::milliseconds(50);
  TcpRuntime rt(options);
  // Peers that reply forever, four chains at once.
  CountingPeer a(0, &rt, 1 << 30), b(1, &rt, 1 << 30);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  ScopedLogCapture capture;  // The deadline warning and the final drops.
  for (int i = 0; i < 4; ++i) rt.Send(Make(0, 1));
  Status st = rt.Run();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("quiescence not reached"), std::string::npos);
  // The chains live in mailboxes and in frames awaiting credit.
  EXPECT_TRUE(st.message().find(" queued") != std::string::npos ||
              st.message().find(" uncredited frame") != std::string::npos)
      << "the error names no pending work: " << st.message();
  // Stop the chains before the handlers go out of scope.
  rt.UnregisterPeer(0);
  rt.UnregisterPeer(1);
}

TEST(TcpRuntimeTest, ShutdownRightAfterDispatchNeverHangs) {
  // Destroying the runtime the moment a handler has run races Shutdown's
  // wake-up against the reactor worker entering its next wait, and the
  // reactor's teardown against the dispatch that just ran. A wake-up that
  // lands between a waiter's stop check and its wait is lost and the join
  // hangs forever; many cycles make that likely. The watchdog turns a hang
  // into a failure.
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!cv.wait_for(lock, std::chrono::minutes(3), [&] { return done; })) {
      std::fprintf(stderr, "runtime teardown hung\n");
      std::abort();
    }
  });
  TcpRuntime::Options options;
  options.io_workers = 1;
  for (int cycle = 0; cycle < 20'000; ++cycle) {
    CountingPeer peer(0, nullptr, 0);  // Outlives the runtime's threads.
    TcpRuntime rt(options);
    rt.RegisterPeer(0, &peer);
    rt.Send(Make(0, 0));
    while (peer.received() == 0) std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  cv.notify_one();
  watchdog.join();
}

TEST(TcpRuntimeTest, LargePayloadsSurviveFragmentation) {
  TcpRuntime rt;
  CountingPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  // Well past any single read buffer, so reassembly spans many recv calls.
  rt.Send(Make(0, 1, std::vector<uint8_t>(3u << 20, 0xd7)));
  rt.Send(Make(0, 1, std::vector<uint8_t>(512, 0x11)));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(b.received(), 2);
  EXPECT_EQ(rt.dropped_count(), 0u);
}

TEST(TcpRuntimeTest, UnregisterClosesSocketsAndKernelCountsDrops) {
  ScopedLogCapture quiet;
  TcpRuntime rt;
  CountingPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  ASSERT_EQ(b.received(), 1);

  rt.UnregisterPeer(1);  // Listener and connections torn down.
  EXPECT_EQ(rt.ListenPort(1), 0);
  // The cached connection is gone and the endpoint refuses connects: the
  // kernel, not a simulation flag, reports the losses.
  rt.Send(Make(0, 1));
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(rt.dropped_count(), 2u);
  EXPECT_EQ(b.received(), 1);
}

/// The IPv4 sockets in TIME_WAIT (state 06 in /proc/net/tcp), each as its
/// local and remote port.
std::set<std::pair<uint16_t, uint16_t>> TimeWaitPorts() {
  std::set<std::pair<uint16_t, uint16_t>> out;
  std::FILE* f = std::fopen("/proc/net/tcp", "r");
  if (f == nullptr) return out;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned local_port = 0, remote_port = 0, state = 0;
    if (std::sscanf(line, " %*d: %*8x:%4x %*8x:%4x %2x", &local_port,
                    &remote_port, &state) == 3 &&
        state == 0x06) {
      out.insert({static_cast<uint16_t>(local_port),
                  static_cast<uint16_t>(remote_port)});
    }
  }
  std::fclose(f);
  return out;
}

TEST(TcpRuntimeTest, TeardownLeavesNoSocketInTimeWait) {
  // An accepted connection closes with a reset, so whichever end closes
  // first, no socket of a torn-down runtime holds a port in TIME_WAIT (which
  // a loop of runtimes would otherwise pile up until port-0 binds fail).
  const std::set<std::pair<uint16_t, uint16_t>> before = TimeWaitPorts();
  std::set<uint16_t> listen_ports;
  {
    TcpRuntime rt;
    std::vector<std::unique_ptr<CountingPeer>> peers;
    for (NodeId i = 0; i < 8; ++i) {
      peers.push_back(std::make_unique<CountingPeer>(i, &rt, 0));
      rt.RegisterPeer(i, peers.back().get());
      listen_ports.insert(rt.ListenPort(i));
    }
    for (NodeId i = 0; i < 8; ++i) {
      for (NodeId j = 0; j < 8; ++j) {
        if (i != j) rt.Send(Make(i, j));
      }
    }
    ASSERT_TRUE(rt.Run().ok());
    for (NodeId i = 0; i < 8; ++i) EXPECT_EQ(peers[i]->received(), 7);
    for (NodeId i = 0; i < 8; ++i) rt.UnregisterPeer(i);
  }
  size_t lingering = 0;
  for (const auto& [local, remote] : TimeWaitPorts()) {
    if (before.count({local, remote}) == 0 &&
        (listen_ports.count(local) > 0 || listen_ports.count(remote) > 0)) {
      ++lingering;
    }
  }
  EXPECT_EQ(lingering, 0u) << "sockets of the torn-down runtime in TIME_WAIT";
}

TEST(TcpRuntimeTest, ReconnectOnSendReachesRestartedPeer) {
  ScopedLogCapture quiet;
  TcpRuntime rt;
  CountingPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  uint16_t old_port = rt.ListenPort(1);

  rt.UnregisterPeer(1);
  rt.Send(Make(0, 1));  // Dropped: endpoint is down.
  ASSERT_TRUE(rt.Run().ok());

  CountingPeer b2(1, &rt, 0);  // Restarted process: fresh port, same id.
  rt.RegisterPeer(1, &b2);
  EXPECT_NE(rt.ListenPort(1), 0);
  EXPECT_NE(rt.ListenPort(1), old_port);
  rt.Send(Make(0, 1));  // Sender reconnects via the updated endpoint table.
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(b2.received(), 1);
  EXPECT_EQ(rt.dropped_count(), 1u);
}

TEST(TcpRuntimeTest, TwoRuntimesExchangeViaRemoteEndpoints) {
  // Peers hosted by different runtimes (the separate-process shape): routing
  // crosses runtime instances purely through the endpoint tables.
  TcpRuntime rt_a, rt_b;
  CountingPeer a(0, &rt_a, 0), b(1, &rt_b, 1);
  rt_a.RegisterPeer(0, &a);
  rt_b.RegisterPeer(1, &b);
  ASSERT_TRUE(
      rt_a.AddRemoteEndpoint(1, {"127.0.0.1", rt_b.ListenPort(1)}).ok());
  ASSERT_TRUE(
      rt_b.AddRemoteEndpoint(0, {"127.0.0.1", rt_a.ListenPort(0)}).ok());

  rt_a.Send(Make(0, 1));
  ASSERT_TRUE(rt_a.Run().ok());
  ASSERT_TRUE(rt_b.Run().ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((b.received() < 1 || a.received() < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(b.received(), 1);
  EXPECT_EQ(a.received(), 1);  // The reply crossed back.
}

TEST(TcpRuntimeTest, RemoteEndpointConflictIsRejected) {
  ScopedLogCapture quiet;  // The rejected remap logs a warning.
  TcpRuntime rt;
  ASSERT_TRUE(rt.AddRemoteEndpoint(7, {"127.0.0.1", 9001}).ok());
  // Identical re-add (a re-applied bootstrap table) is idempotent.
  EXPECT_TRUE(rt.AddRemoteEndpoint(7, {"127.0.0.1", 9001}).ok());
  // A different endpoint for a known node must not silently remap it.
  Status conflict = rt.AddRemoteEndpoint(7, {"127.0.0.1", 9002});
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rt.EndpointOf(7).port, 9001);  // Table unchanged.

  // The same guard protects a local listening peer's row.
  CountingPeer a(0, &rt, 0);
  rt.RegisterPeer(0, &a);
  ASSERT_NE(rt.ListenPort(0), 0);
  EXPECT_FALSE(rt.AddRemoteEndpoint(0, {"127.0.0.1", 9003}).ok());
  EXPECT_EQ(rt.EndpointOf(0).port, rt.ListenPort(0));
}

TEST(TcpRuntimeTest, FixedListenPortBindsConfiguredEndpoint) {
  // A config-file-owned endpoint: ask the runtime to bind exactly a port
  // picked beforehand. The port stays held until the runtime has bound it,
  // on a socket bound with SO_REUSEADDR that never listens: port-0 binds
  // skip it and binds without SO_REUSEADDR fail, so nothing else can take
  // it meanwhile, while the runtime's SO_REUSEADDR listener binds it.
  struct Holder {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ~Holder() { ::close(fd); }
  } holder;
  ASSERT_GE(holder.fd, 0);
  const int one = 1;
  int rc = ::setsockopt(holder.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ASSERT_EQ(rc, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sockaddr* address = reinterpret_cast<sockaddr*>(&addr);
  socklen_t length = sizeof(addr);
  ASSERT_EQ(::bind(holder.fd, address, length), 0);
  ASSERT_EQ(::getsockname(holder.fd, address, &length), 0);
  const uint16_t port = ntohs(addr.sin_port);
  ASSERT_NE(port, 0);
  TcpRuntime::Options options;
  options.listen_port = port;
  TcpRuntime rt(options);
  CountingPeer a(0, &rt, 0);
  rt.RegisterPeer(0, &a);
  EXPECT_EQ(rt.ListenPort(0), port);
  ASSERT_TRUE(rt.PeerReady(0).ok());
}

TEST(TcpRuntimeTest, EndpointParseAndTable) {
  auto good = TcpRuntime::Endpoint::Parse("127.0.0.1:8080");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->host, "127.0.0.1");
  EXPECT_EQ(good->port, 8080);
  EXPECT_EQ(good->ToString(), "127.0.0.1:8080");
  EXPECT_FALSE(TcpRuntime::Endpoint::Parse("no-port").ok());
  EXPECT_FALSE(TcpRuntime::Endpoint::Parse(":123").ok());
  EXPECT_FALSE(TcpRuntime::Endpoint::Parse("h:99999").ok());
  EXPECT_FALSE(TcpRuntime::Endpoint::Parse("h:12x").ok());

  TcpRuntime rt;
  CountingPeer a(3, &rt, 0);
  rt.RegisterPeer(3, &a);
  std::string table = rt.EndpointTable();
  EXPECT_NE(table.find("3 127.0.0.1:"), std::string::npos);
}

// --- Exact quiescence (credit acks) ----------------------------------------

TEST(TcpRuntimeTest, ExactQuiescenceReturnsImmediately) {
  // Termination is credit-exact, so a Run() on a quiescent network returns
  // at once instead of waiting out a heuristic clock.
  TcpRuntime rt;
  CountingPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(b.received(), 1);

  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(rt.Run().ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            8);
}

TEST(TcpRuntimeTest, CrashHoldingUncreditedFramesStillReachesQuiescence) {
  // Exact termination must not wedge on a dead peer: a burst of frames is
  // in flight (enqueued, some written, none credited) when the receiver's
  // sockets close. The close-time ledger drain releases every hold, so
  // Run() converges instead of waiting for credits that can never arrive.
  ScopedLogCapture quiet;
  TcpRuntime rt;
  CountingPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());  // Connection established.

  for (int i = 0; i < 200; ++i) {
    rt.Send(Make(0, 1, std::vector<uint8_t>(4096, 0x33)));
  }
  rt.UnregisterPeer(1);
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(rt.Run().ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10);  // Well under the 30s give-up deadline: no hang.
}

// --- Frame coalescing ----------------------------------------------------

/// On each incoming message, sends `fan` tagged kQueryAnswer messages to
/// `dest` within the one dispatch — the shape coalescing packs into a single
/// kBatch frame. Tag = first payload byte, `urgent_tag` (if nonzero) is sent
/// as a kToken, a type net::IsUrgent names.
class FanPeer : public PeerHandler {
 public:
  FanPeer(NodeId id, Runtime* rt, NodeId dest, int fan, uint8_t urgent_tag = 0)
      : id_(id), runtime_(rt), dest_(dest), fan_(fan),
        urgent_tag_(urgent_tag) {}

  void OnMessage(const Message&) override {
    for (int i = 1; i <= fan_; ++i) {
      Message m;
      const bool urgent = static_cast<uint8_t>(i) == urgent_tag_;
      m.type = urgent ? MessageType::kToken : MessageType::kQueryAnswer;
      m.from = id_;
      m.to = dest_;
      m.payload = std::vector<uint8_t>{static_cast<uint8_t>(i), 0, 0};
      runtime_->Send(std::move(m));
    }
  }

 private:
  NodeId id_;
  Runtime* runtime_;
  NodeId dest_;
  int fan_;
  uint8_t urgent_tag_;
};

/// Records the tag byte of every received message, and the thread that ran
/// it, in arrival order.
class RecordingPeer : public PeerHandler {
 public:
  void OnMessage(const Message& msg) override {
    std::lock_guard<std::mutex> lock(mutex_);
    order_.push_back(msg.payload.size() > 0 ? msg.payload.data()[0] : 0);
    threads_.push_back(std::this_thread::get_id());
  }
  std::vector<uint8_t> order() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }
  std::vector<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<uint8_t> order_;
  std::vector<std::thread::id> threads_;
};

TEST(TcpRuntimeTest, RunExclusiveRunsTheBacklogOnItsCaller) {
  // Messages that reach a peer while RunExclusive holds its mailbox queue
  // up, and the caller's thread runs them before it lets the mailbox go.
  TcpRuntime rt;
  RecordingPeer x;
  rt.RegisterPeer(1, &x);
  constexpr uint8_t kMessages = 8;
  std::vector<uint8_t> expected;
  for (uint8_t i = 1; i <= kMessages; ++i) expected.push_back(i);

  bool all_queued = false;
  rt.RunExclusive(1, [&] {
    // A thread outside any dispatch sends each message in its own frame.
    std::thread sender([&] {
      for (uint8_t tag : expected) rt.Send(Make(0, 1, {tag}));
    });
    sender.join();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (rt.stats().io().queued_dispatches.load() < kMessages &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    all_queued = rt.stats().io().queued_dispatches.load() == kMessages;
    EXPECT_TRUE(x.order().empty()) << "a message ran beside fn";
  });
  ASSERT_TRUE(all_queued) << "the messages never reached the mailbox";
  EXPECT_EQ(x.order(), expected);
  EXPECT_EQ(x.threads(),
            std::vector<std::thread::id>(kMessages,
                                         std::this_thread::get_id()));
  EXPECT_EQ(rt.stats().io().inline_dispatches.load(), 0u);
  ASSERT_TRUE(rt.Run().ok());
}

TEST(TcpRuntimeTest, DispatchSendsCoalesceAndStatsNameInnerTypes) {
  // Five same-destination sends inside one dispatch travel as one kBatch
  // frame — but NetStats attributes each message to its own MessageType;
  // kBatch is transport framing and never appears in the per-type tables.
  TcpRuntime rt;
  FanPeer fan(1, &rt, 2, /*fan=*/5);
  RecordingPeer sink;
  rt.RegisterPeer(1, &fan);
  rt.RegisterPeer(2, &sink);
  rt.Send(Make(0, 1));  // Trigger (no scope on this thread: solo frame).
  ASSERT_TRUE(rt.Run().ok());

  ASSERT_EQ(sink.order().size(), 5u);
  EXPECT_EQ(rt.stats().MessagesOfType(MessageType::kQueryAnswer), 5u);
  EXPECT_EQ(rt.stats().MessagesOfType(MessageType::kBatch), 0u);
  EXPECT_EQ(rt.stats().io().batch_frames.load(), 1u);
  EXPECT_EQ(rt.stats().io().batched_messages.load(), 5u);
  // Wire frames: the trigger plus the batch — not 1 + 5.
  EXPECT_EQ(rt.stats().io().frames_enqueued.load(), 2u);
  EXPECT_EQ(rt.dropped_count(), 0u);
}

TEST(TcpRuntimeTest, UrgentMessageBypassesBatchKeepingFifoOrder) {
  // Tags 1..5 with tag 3 urgent: the urgent send flushes the pending batch
  // (1,2) first, goes out solo, and 4,5 coalesce behind it — three wire
  // frames, arrival order intact.
  TcpRuntime rt;
  FanPeer fan(1, &rt, 2, /*fan=*/5, /*urgent_tag=*/3);
  RecordingPeer sink;
  rt.RegisterPeer(1, &fan);
  rt.RegisterPeer(2, &sink);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());

  EXPECT_EQ(sink.order(), (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(rt.stats().io().batch_frames.load(), 2u);
  EXPECT_EQ(rt.stats().io().batched_messages.load(), 4u);
  EXPECT_EQ(rt.stats().io().frames_enqueued.load(), 4u);  // trigger+2+solo.
}

TEST(TcpRuntimeTest, BatchCapFlushesMidDispatch) {
  // A tiny cap forces flushes before EndDispatch: messages still all arrive,
  // in order, just spread across more frames.
  TcpRuntime::Options options;
  options.batch_max_bytes = 8;  // Two 3-byte payloads breach the cap.
  TcpRuntime rt(options);
  FanPeer fan(1, &rt, 2, /*fan=*/9);
  RecordingPeer sink;
  rt.RegisterPeer(1, &fan);
  rt.RegisterPeer(2, &sink);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());

  EXPECT_EQ(sink.order(), (std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_GE(rt.stats().io().batch_frames.load(), 3u);
}

TEST(TcpRuntimeTest, CoalescingDisabledSendsEveryMessageSolo) {
  TcpRuntime::Options options;
  options.batch_max_bytes = 0;  // Pre-batching behavior.
  TcpRuntime rt(options);
  FanPeer fan(1, &rt, 2, /*fan=*/5);
  RecordingPeer sink;
  rt.RegisterPeer(1, &fan);
  rt.RegisterPeer(2, &sink);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());

  ASSERT_EQ(sink.order().size(), 5u);
  EXPECT_EQ(rt.stats().io().batch_frames.load(), 0u);
  EXPECT_EQ(rt.stats().io().frames_enqueued.load(), 6u);  // trigger + 5 solo.
}

// --- Protocol-level scenarios over sockets -------------------------------

std::vector<rel::Database> RunExampleOn(const core::P2PSystem& system,
                                        Runtime* rt) {
  core::Session session(system, rt);
  EXPECT_TRUE(session.RunDiscovery().ok());
  EXPECT_TRUE(session.RunUpdate().ok());
  EXPECT_TRUE(session.AllClosed());
  return session.SnapshotDatabases();
}

TEST(TcpRuntimeTest, CrossRuntimeParityOnRunningExample) {
  // The same system, driven to fixpoint on both runtimes, must land on
  // null-isomorphic databases at every node: transport must not matter.
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());

  SimRuntime sim;
  std::vector<rel::Database> via_sim = RunExampleOn(*system, &sim);
  TcpRuntime sockets;
  std::vector<rel::Database> via_sockets = RunExampleOn(*system, &sockets);

  ASSERT_EQ(via_sim.size(), via_sockets.size());
  for (size_t n = 0; n < via_sim.size(); ++n) {
    EXPECT_TRUE(rel::DatabasesIsomorphic(via_sockets[n], via_sim[n]))
        << "node " << n << ": tcp vs sim";
  }
  EXPECT_GT(sockets.stats().total_messages(), 0u);
}

std::string FreshRoot(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/p2pdb_tcp_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Durable session options: per-node logs under `root`, never fsync'd.
core::Session::Options DurableOptions(const std::string& root) {
  core::Session::Options options;
  options.storage_root = root;
  options.sync = storage::SyncMode::kNoSync;
  return options;
}

TEST(TcpRuntimeTest, ChurnScriptWithSocketCloseCrashes) {
  // PR 2's churn scenario, but the crash is a literal connection teardown:
  // the victim's listener closes mid-update, in-flight frames die in the
  // kernel, and the restarted peer rejoins from its log on a fresh
  // port. The re-converged network must match a never-crashed run.
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());

  SimRuntime baseline_rt;
  std::vector<rel::Database> baseline = RunExampleOn(*system, &baseline_rt);

  std::string root = FreshRoot("churn");
  TcpRuntime rt;
  core::Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());

  auto victim = system->NodeByName("B");
  ASSERT_TRUE(victim.ok());
  // Churn times are wall-clock micros since the update starts: crash
  // shortly after it, restart 100ms later.
  core::ChurnScript churn = {core::ChurnEvent::Crash(5'000, *victim),
                             core::ChurnEvent::Restart(100'000, *victim)};
  ScopedLogCapture quiet;  // Kernel-refused deliveries are expected.
  ASSERT_TRUE(session.RunUpdateWithChurn(churn).ok());
  ASSERT_TRUE(session.AllClosed());

  for (size_t n = 0; n < session.peer_count(); ++n) {
    EXPECT_TRUE(rel::DatabasesIsomorphic(session.peer(n).db(), baseline[n]))
        << "node " << n << " diverged from the never-crashed run";
  }
  std::filesystem::remove_all(root);
}

TEST(TcpRuntimeTest, MultiPeerChurnOnGeneratedScenario) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = 8;
  options.records_per_node = 6;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());

  SimRuntime baseline_rt;
  std::vector<rel::Database> baseline = RunExampleOn(*system, &baseline_rt);

  std::string root = FreshRoot("multi");
  TcpRuntime rt;
  core::Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());

  core::ChurnScript churn = {core::ChurnEvent::Crash(3'000, 2),
                             core::ChurnEvent::Crash(6'000, 5),
                             core::ChurnEvent::Restart(80'000, 2),
                             core::ChurnEvent::Restart(90'000, 5)};
  ScopedLogCapture quiet;
  ASSERT_TRUE(session.RunUpdateWithChurn(churn).ok());
  ASSERT_TRUE(session.AllClosed());

  for (size_t n = 0; n < session.peer_count(); ++n) {
    EXPECT_TRUE(rel::DatabasesIsomorphic(session.peer(n).db(), baseline[n]))
        << "node " << n;
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace p2pdb::net
