// Semi-naive (incremental) evaluation over log ranges: a plan seeded at one
// atom must account for exactly the answers a monotone insertion adds,
// seeding only from the entries at or past `from`.
#include <gtest/gtest.h>

#include "src/relational/eval.h"
#include "src/util/rng.h"

namespace p2pdb::rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }

ConjunctiveQuery TwoHop() {
  ConjunctiveQuery q;
  q.head_vars = {"X", "Z"};
  Atom a1, a2;
  a1.relation = a2.relation = "edge";
  a1.terms = {Term::Var("X"), Term::Var("Y")};
  a2.terms = {Term::Var("Y"), Term::Var("Z")};
  q.atoms = {a1, a2};
  return q;
}

// The projected answers of `query` seeded at `atom` from entries
// [from, size) of its relation's log in `db`, in emission order.
std::vector<Tuple> Delta(const ReadView& db, const ConjunctiveQuery& query,
                         size_t atom, size_t from) {
  auto plan = QueryPlan::Compile(query, db, atom);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<Tuple> out;
  if (!plan.ok()) return out;
  std::vector<Value> binding;
  std::vector<Value> row;
  plan->RunSeeded(db, from, &binding, [&](const std::vector<Value>& b) {
    out.emplace_back(plan->Project(b, &row));
    return true;
  });
  return out;
}

ConjunctiveQuery Unary(const std::string& relation) {
  ConjunctiveQuery q;
  q.head_vars = {"X"};
  Atom a;
  a.relation = relation;
  a.terms = {Term::Var("X")};
  q.atoms = {a};
  return q;
}

TEST(EvalDeltaTest, SingleAtomDelta) {
  Database db;
  (void)db.CreateRelation(RelationSchema("p", {"x"}));
  (void)db.Insert("p", Tuple({I(1)}));
  (void)db.Insert("p", Tuple({I(2)}));
  // Only entry 1 (the tuple 2) is new.
  EXPECT_EQ(Delta(db, Unary("p"), 0, 1),
            (std::vector<Tuple>{Tuple({I(2)})}));
}

TEST(EvalDeltaTest, EntriesBelowFromNeverSeed) {
  Database db;
  (void)db.CreateRelation(RelationSchema("p", {"x"}));
  for (int64_t v : {4, 1, 3, 2}) (void)db.Insert("p", Tuple({I(v)}));
  const LogView log = db.relation("p").View();
  for (size_t from = 0; from <= log.size(); ++from) {
    std::vector<Tuple> expected;
    for (size_t e = from; e < log.size(); ++e) {
      expected.emplace_back(log.at(e));
    }
    EXPECT_EQ(Delta(db, Unary("p"), 0, from), expected) << "from " << from;
  }
  // In a join, an old entry still matches the other atom, but never seeds:
  // edge(1,2) is old, edge(2,3) new. Seeding occurrence 0 with (2,3) finds
  // no edge out of 3; seeding occurrence 1 with it joins the old (1,2).
  Database graph;
  (void)graph.CreateRelation(RelationSchema("edge", {"a", "b"}));
  (void)graph.Insert("edge", Tuple({I(1), I(2)}));
  (void)graph.Insert("edge", Tuple({I(2), I(3)}));
  const ConjunctiveQuery q = TwoHop();
  EXPECT_TRUE(Delta(graph, q, 0, 1).empty());
  EXPECT_EQ(Delta(graph, q, 1, 1),
            (std::vector<Tuple>{Tuple({I(1), I(3)})}));
}

TEST(EvalDeltaTest, JoinDeltaCoversBothSides) {
  Database db;
  (void)db.CreateRelation(RelationSchema("edge", {"a", "b"}));
  (void)db.Insert("edge", Tuple({I(1), I(2)}));
  // Now insert 2->3 and compute what two-hop answers appeared.
  const size_t from = db.relation("edge").View().size();
  (void)db.Insert("edge", Tuple({I(2), I(3)}));

  ConjunctiveQuery q = TwoHop();
  std::set<Tuple> incremental;
  for (size_t occurrence : {0u, 1u}) {
    std::vector<Tuple> part = Delta(db, q, occurrence, from);
    incremental.insert(part.begin(), part.end());
  }
  EXPECT_EQ(incremental, (std::set<Tuple>{Tuple({I(1), I(3)})}));
}

TEST(EvalDeltaTest, BuiltinsRespectedInDeltaPath) {
  Database db;
  (void)db.CreateRelation(RelationSchema("n", {"v"}));
  (void)db.Insert("n", Tuple({I(1)}));
  (void)db.Insert("n", Tuple({I(5)}));
  ConjunctiveQuery q = Unary("n");
  Builtin b;
  b.op = BuiltinOp::kLt;
  b.lhs = Term::Var("X");
  b.rhs = Term::Const(I(3));
  q.builtins = {b};
  EXPECT_EQ(Delta(db, q, 0, 0),
            (std::vector<Tuple>{Tuple({I(1)})}));  // 5 filtered out.
}

// One range whose entries pass and fail a built-in decidable from the delta
// atom alone: the single plan checks it per seed, before the join.
TEST(EvalDeltaTest, OnePlanServesPassingAndFailingSeeds) {
  Database db;
  (void)db.CreateRelation(RelationSchema("n", {"x"}));
  (void)db.CreateRelation(RelationSchema("m", {"x", "y"}));
  for (int64_t v : {1, 5, 2, 7}) {
    (void)db.Insert("n", Tuple({I(v)}));
    (void)db.Insert("m", Tuple({I(v), I(10 * v)}));
  }
  ConjunctiveQuery q;
  q.head_vars = {"X", "Y"};
  Atom n, m;
  n.relation = "n";
  n.terms = {Term::Var("X")};
  m.relation = "m";
  m.terms = {Term::Var("X"), Term::Var("Y")};
  q.atoms = {n, m};
  Builtin b;
  b.op = BuiltinOp::kLt;
  b.lhs = Term::Var("X");
  b.rhs = Term::Const(I(3));
  q.builtins = {b};

  // Entry order: 1 passes, 5 fails, 2 passes, 7 fails.
  EXPECT_EQ(Delta(db, q, 0, 0),
            (std::vector<Tuple>{Tuple({I(1), I(10)}), Tuple({I(2), I(20)})}));
  auto plan = QueryPlan::Compile(q, db, 0);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->slots(), (std::vector<std::string>{"X", "Y"}));
  std::vector<std::vector<Value>> bindings;
  std::vector<Value> binding;
  plan->RunSeeded(db, 0, &binding,
                  [&](const std::vector<Value>& b) {
                    bindings.push_back(b);
                    return true;
                  });
  ASSERT_EQ(bindings.size(), 2u);
  EXPECT_EQ(bindings[1][1], I(20));
}

TEST(EvalDeltaTest, OutOfRangeAtomRejected) {
  ConjunctiveQuery q = TwoHop();
  Database db;
  EXPECT_FALSE(QueryPlan::Compile(q, db, 5).ok());
  EXPECT_FALSE(QueryPlan::Compile(q, db, 2).ok());
  EXPECT_TRUE(QueryPlan::Compile(q, db, 1).ok());
}

// Property: incremental accumulation over random batches equals a fresh full
// evaluation at every cut point. Each batch is the range between two random
// cut points of the log.
TEST(EvalDeltaTest, IncrementalMatchesFullEvaluationUnderRandomInserts) {
  Rng rng(1234);
  Database db;
  (void)db.CreateRelation(RelationSchema("edge", {"a", "b"}));
  ConjunctiveQuery q = TwoHop();

  std::set<Tuple> accumulated;  // Maintained incrementally.
  size_t from = 0;              // First entry not yet evaluated.
  size_t cuts = 0;
  for (int step = 0; step < 240; ++step) {
    Tuple t({I(static_cast<int64_t>(rng.NextBelow(12))),
             I(static_cast<int64_t>(rng.NextBelow(12)))});
    ASSERT_TRUE(db.Insert("edge", t).ok());
    if (step + 1 < 240 && !rng.NextBool(0.25)) continue;  // Not a cut point.
    const LogView log = db.relation("edge").View();
    for (size_t occurrence = 0; occurrence < q.atoms.size(); ++occurrence) {
      std::vector<Tuple> part = Delta(db, q, occurrence, from);
      accumulated.insert(part.begin(), part.end());
    }
    from = log.size();
    ++cuts;
    auto full = EvaluateQuery(db, q);
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(accumulated, *full) << "diverged at step " << step;
  }
  EXPECT_GT(cuts, 20u);
}

}  // namespace
}  // namespace p2pdb::rel
