// Query-dependent updates: pull only the relations a local query needs,
// bounded by the paper's SN path mechanism (A4).
#include <gtest/gtest.h>

#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/workload/scenario.h"

namespace p2pdb::core {
namespace {

rel::Value S(const char* s) { return rel::Value::Str(s); }

TEST(PartialUpdateTest, PullsOnlyRequestedRelations) {
  auto system = lang::ParseSystem(R"(
node A { rel a(x); rel a2(x); }
node B { rel b(x); fact b("b1"); }
node C { rel c(x); fact c("c1"); }
rule r1: B.b(X) => A.a(X);
rule r2: C.c(X) => A.a2(X);
)");
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  // Pull only relation "a" at node A: rule r1 is relevant, r2 is not.
  ASSERT_TRUE(session.RunPartialUpdate(0, {"a"}).ok());
  EXPECT_TRUE(
      session.peer(0).db().relation("a").Contains(rel::Tuple({S("b1")})));
  EXPECT_TRUE(session.peer(0).db().relation("a2").empty());
}

TEST(PartialUpdateTest, TransitivePullThroughChain) {
  auto system = lang::ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); }
node C { rel c(x); fact c("deep"); }
rule r1: B.b(X) => A.a(X);
rule r2: C.c(X) => B.b(X);
)");
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunPartialUpdate(0, {"a"}).ok());
  // C's data travels C -> B -> A.
  EXPECT_TRUE(
      session.peer(0).db().relation("a").Contains(rel::Tuple({S("deep")})));
}

TEST(PartialUpdateTest, CycleBoundedBySnPath) {
  auto system = lang::ParseSystem(R"(
node A { rel a(x); fact a("fromA"); }
node B { rel b(x); fact b("fromB"); }
rule r1: B.b(X) => A.a(X);
rule r2: A.a(X) => B.b(X);
)");
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunPartialUpdate(0, {"a"}).ok());
  // A has B's data; the data flow converged (quiescence) despite the cycle.
  EXPECT_TRUE(
      session.peer(0).db().relation("a").Contains(rel::Tuple({S("fromB")})));
}

TEST(PartialUpdateTest, RunningExampleQueryDependent) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  // Node A pulls only what relation "a" needs (rule r4 from B, and upstream).
  ASSERT_TRUE(session.RunPartialUpdate(0, {"a"}).ok());
  EXPECT_FALSE(session.peer(0).db().relation("a").empty());
  // The partial session does not flip closure states.
  EXPECT_NE(session.peer(4).update().state(), UpdateEngine::State::kClosed);
}

TEST(PartialUpdateTest, IrrelevantRelationPullsNothing) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  uint64_t before = rt.stats().total_messages();
  ASSERT_TRUE(session.RunPartialUpdate(4, {"e"}).ok());  // E has no rules.
  EXPECT_EQ(rt.stats().total_messages(), before);  // Nothing to do.
}

}  // namespace
}  // namespace p2pdb::core
