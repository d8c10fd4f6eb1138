#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/net/sim_runtime.h"

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
