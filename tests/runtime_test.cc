#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "src/net/sim_runtime.h"
#include "src/net/thread_runtime.h"
#include "src/util/log_capture.h"

namespace p2pdb::net {
namespace {

// Test peer: counts messages; optionally replies n times (ping-pong).
class EchoPeer : public PeerHandler {
 public:
  EchoPeer(NodeId id, Runtime* rt, int replies_left)
      : id_(id), runtime_(rt), replies_left_(replies_left) {}

  void OnMessage(const Message& msg) override {
    ++received_;
    last_seq_.push_back(msg.seq);
    if (replies_left_ > 0) {
      --replies_left_;
      Message reply;
      reply.type = msg.type;
      reply.from = id_;
      reply.to = msg.from;
      runtime_->Send(reply);
    }
  }

  int received() const { return received_; }
  const std::vector<uint64_t>& seqs() const { return last_seq_; }

 private:
  NodeId id_;
  Runtime* runtime_;
  int replies_left_;
  std::atomic<int> received_{0};
  std::vector<uint64_t> last_seq_;
};

Message Make(NodeId from, NodeId to) {
  Message m;
  m.type = MessageType::kUpdateStart;
  m.from = from;
  m.to = to;
  m.payload = {1, 2, 3};
  return m;
}

TEST(SimRuntimeTest, DeliversAndTerminates) {
  SimRuntime rt;
  EchoPeer a(0, &rt, 0), b(1, &rt, 3);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(b.received(), 1);
  EXPECT_EQ(a.received(), 1);  // One reply.
  EXPECT_EQ(rt.delivered_count(), 2u);
}

TEST(SimRuntimeTest, PingPongUntilRepliesExhausted) {
  SimRuntime rt;
  EchoPeer a(0, &rt, 5), b(1, &rt, 5);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  // 1 initial + 10 replies total.
  EXPECT_EQ(rt.delivered_count(), 11u);
}

TEST(SimRuntimeTest, TimeAdvancesWithLatency) {
  SimRuntime rt;
  rt.pipes().set_default_latency(LatencyModel{500, 0});
  EchoPeer a(0, &rt, 0), b(1, &rt, 1);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(rt.NowMicros(), 1000u);  // Two hops at 500us.
}

TEST(SimRuntimeTest, FifoPerLinkDespiteJitter) {
  SimRuntime rt;
  rt.pipes().set_default_latency(LatencyModel{100, 1000});  // Heavy jitter.
  EchoPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  for (int i = 0; i < 50; ++i) rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  ASSERT_EQ(b.seqs().size(), 50u);
  for (size_t i = 1; i < b.seqs().size(); ++i) {
    EXPECT_LT(b.seqs()[i - 1], b.seqs()[i]);  // In-order delivery.
  }
}

TEST(SimRuntimeTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimRuntime rt(SimRuntime::Options{.seed = 5, .max_events = 1000});
    EchoPeer a(0, &rt, 10), b(1, &rt, 10);
    rt.RegisterPeer(0, &a);
    rt.RegisterPeer(1, &b);
    rt.Send(Make(0, 1));
    EXPECT_TRUE(rt.Run().ok());
    return rt.NowMicros();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimRuntimeTest, ScheduledSendArrivesAtTime) {
  SimRuntime rt;
  rt.pipes().set_default_latency(LatencyModel{0, 0});
  EchoPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.ScheduleSend(5000, Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(b.received(), 1);
  EXPECT_EQ(rt.NowMicros(), 5000u);
}

TEST(SimRuntimeTest, MaxEventsGuardsNonTermination) {
  SimRuntime rt(SimRuntime::Options{.seed = 1, .max_events = 100});
  // Peers that reply forever.
  EchoPeer a(0, &rt, 1 << 30), b(1, &rt, 1 << 30);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  Status st = rt.Run();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(SimRuntimeTest, TracerSeesDeliveries) {
  SimRuntime rt;
  EchoPeer a(0, &rt, 0), b(1, &rt, 2);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  int traced = 0;
  rt.set_tracer([&](uint64_t, const Message&) { ++traced; });
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(traced, 2);
}

TEST(SimRuntimeTest, StatsRecordMessagesAndBytes) {
  SimRuntime rt;
  EchoPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(rt.stats().total_messages(), 1u);
  // Counted bytes are the exact frame encoding of the sent message (the
  // runtime assigned it seq 0).
  Message sent = Make(0, 1);
  sent.seq = 0;
  EXPECT_EQ(rt.stats().total_bytes(), sent.WireSize());
  EXPECT_EQ(rt.stats().MessagesOfType(MessageType::kUpdateStart), 1u);
  auto pipes = rt.stats().PerPipe();
  std::pair<NodeId, NodeId> link{0, 1};
  EXPECT_EQ(pipes[link].messages, 1u);
  rt.stats().Reset();
  EXPECT_EQ(rt.stats().total_messages(), 0u);
}

TEST(ThreadRuntimeTest, ReachesQuiescence) {
  ThreadRuntime rt;
  EchoPeer a(0, &rt, 20), b(1, &rt, 20);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  // 1 + 40 deliveries happened, all processed.
  EXPECT_EQ(a.received() + b.received(), 41);
}

TEST(ThreadRuntimeTest, StarFanOutAndReplies) {
  ThreadRuntime rt;
  std::vector<std::unique_ptr<EchoPeer>> peers;
  // Peer 0 never replies; peers 1..7 reply exactly once.
  peers.push_back(std::make_unique<EchoPeer>(0, &rt, 0));
  rt.RegisterPeer(0, peers.back().get());
  for (NodeId i = 1; i < 8; ++i) {
    peers.push_back(std::make_unique<EchoPeer>(i, &rt, 1));
    rt.RegisterPeer(i, peers.back().get());
  }
  for (NodeId i = 1; i < 8; ++i) rt.Send(Make(0, i));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(peers[0]->received(), 7);  // One reply per spoke.
  for (NodeId i = 1; i < 8; ++i) EXPECT_EQ(peers[i]->received(), 1);
}

TEST(ThreadRuntimeTest, UnregisterDropsAndRebindDelivers) {
  ThreadRuntime rt;
  EchoPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(b.received(), 1);

  rt.UnregisterPeer(1);  // Crash: sends to 1 are now dropped, and counted.
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(b.received(), 1);
  EXPECT_EQ(rt.dropped_count(), 1u);

  EchoPeer b2(1, &rt, 0);  // Restart: a fresh handler takes over the id.
  rt.RegisterPeer(1, &b2);
  rt.Send(Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(b2.received(), 1);
  EXPECT_EQ(rt.dropped_count(), 1u);
}

TEST(ThreadRuntimeTest, RegisterWhileRunningSpawnsWorker) {
  ThreadRuntime rt;
  EchoPeer a(0, &rt, 0);
  rt.RegisterPeer(0, &a);
  ASSERT_TRUE(rt.Run().ok());  // Threads are up.
  EchoPeer late(7, &rt, 0);
  rt.RegisterPeer(7, &late);
  rt.Send(Make(0, 7));
  ASSERT_TRUE(rt.Run().ok());
  EXPECT_EQ(late.received(), 1);
}

TEST(ThreadRuntimeTest, RunWaitsForPendingTimer) {
  ThreadRuntime rt;
  EchoPeer a(0, &rt, 0), b(1, &rt, 0);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  ASSERT_TRUE(rt.Run().ok());  // Threads are up, nothing in flight.
  auto start = std::chrono::steady_clock::now();
  rt.ScheduleSend(rt.NowMicros() + 20'000, Make(0, 1));
  ASSERT_TRUE(rt.Run().ok());
  // The timer holds its in-flight unit until it hands the message to Send,
  // so Run() cannot return before the handler has seen it.
  EXPECT_EQ(b.received(), 1);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
}

TEST(ThreadRuntimeTest, RunGivesUpAtDeadlineAndNamesPendingWork) {
  ThreadRuntime rt(ThreadRuntime::Options{std::chrono::milliseconds(50)});
  // Peers that reply forever, four chains at once.
  EchoPeer a(0, &rt, 1 << 30), b(1, &rt, 1 << 30);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);
  ScopedLogCapture capture;  // The deadline warning and the final drops.
  for (int i = 0; i < 4; ++i) rt.Send(Make(0, 1));
  Status st = rt.Run();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("quiescence not reached"), std::string::npos);
  EXPECT_NE(st.message().find(" queued"), std::string::npos)
      << "the error names no mailbox: " << st.message();
  // Stop the chains before the handlers go out of scope.
  rt.UnregisterPeer(0);
  rt.UnregisterPeer(1);
}

TEST(ThreadRuntimeTest, ShutdownRightAfterDispatchNeverHangs) {
  // Destroying the runtime the moment a handler has run races Shutdown's
  // wake-up against the worker re-entering its wait, and against the timer
  // thread entering its first one. A notify that lands between a waiter's
  // predicate check and its wait is lost and the join hangs forever; many
  // cycles make that likely. The watchdog turns a hang into a failure.
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
  for (int cycle = 0; cycle < 20'000; ++cycle) {
    EchoPeer peer(0, nullptr, 0);  // Outlives the runtime's threads.
    ThreadRuntime rt;
    rt.RegisterPeer(0, &peer);
    EXPECT_TRUE(rt.RunUntil(0).ok());  // Starts the worker and timer.
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

TEST(PipeTableTest, LatencyOverrides) {
  PipeTable pipes(LatencyModel{100, 0});
  EXPECT_EQ(pipes.LatencyOf(0, 1).base_micros, 100u);
  pipes.SetLatency(0, 1, LatencyModel{900, 0});
  EXPECT_EQ(pipes.LatencyOf(1, 0).base_micros, 900u);  // Symmetric.
  EXPECT_EQ(pipes.LatencyOf(0, 2).base_micros, 100u);
}

TEST(LatencyModelTest, SampleWithinBounds) {
  Rng rng(3);
  LatencyModel m{100, 50};
  for (int i = 0; i < 100; ++i) {
    uint64_t v = m.Sample(&rng);
    EXPECT_GE(v, 100u);
    EXPECT_LE(v, 150u);
  }
  LatencyModel fixed{70, 0};
  EXPECT_EQ(fixed.Sample(&rng), 70u);
}

}  // namespace
}  // namespace p2pdb::net
