#include "src/relational/eval.h"

#include <gtest/gtest.h>

namespace p2pdb::rel {
namespace {

Value S(const char* s) { return Value::Str(s); }
Value I(int64_t i) { return Value::Int(i); }

Database EdgeDb() {
  Database db;
  (void)db.CreateRelation(RelationSchema("edge", {"src", "dst"}));
  for (auto [a, b] : std::vector<std::pair<const char*, const char*>>{
           {"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"}}) {
    (void)db.Insert("edge", Tuple({S(a), S(b)}));
  }
  return db;
}

Atom EdgeAtom(const char* x, const char* y) {
  Atom a;
  a.relation = "edge";
  a.terms = {Term::Var(x), Term::Var(y)};
  return a;
}

TEST(EvalTest, SingleAtomProjection) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.head_vars = {"X"};
  q.atoms = {EdgeAtom("X", "Y")};
  auto result = EvaluateQuery(db, q);
  ASSERT_TRUE(result.ok());
  // Distinct sources: a, b, c.
  EXPECT_EQ(result->size(), 3u);
}

TEST(EvalTest, JoinTwoHops) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.head_vars = {"X", "Z"};
  q.atoms = {EdgeAtom("X", "Y"), EdgeAtom("Y", "Z")};
  auto result = EvaluateQuery(db, q);
  ASSERT_TRUE(result.ok());
  // a->b->c, b->c->d, a->c->d.
  EXPECT_EQ(result->size(), 3u);
  EXPECT_TRUE(result->count(Tuple({S("a"), S("c")})));
  EXPECT_TRUE(result->count(Tuple({S("b"), S("d")})));
  EXPECT_TRUE(result->count(Tuple({S("a"), S("d")})));
}

TEST(EvalTest, ConstantsInAtoms) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.head_vars = {"Y"};
  Atom a;
  a.relation = "edge";
  a.terms = {Term::Const(S("a")), Term::Var("Y")};
  q.atoms = {a};
  auto result = EvaluateQuery(db, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // b and c.
}

TEST(EvalTest, RepeatedVariableWithinAtom) {
  Database db;
  (void)db.CreateRelation(RelationSchema("p", {"x", "y"}));
  (void)db.Insert("p", Tuple({I(1), I(1)}));
  (void)db.Insert("p", Tuple({I(1), I(2)}));
  ConjunctiveQuery q;
  q.head_vars = {"X"};
  Atom a;
  a.relation = "p";
  a.terms = {Term::Var("X"), Term::Var("X")};
  q.atoms = {a};
  auto result = EvaluateQuery(db, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->count(Tuple({I(1)})));
}

TEST(EvalTest, BuiltinNe) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.head_vars = {"X", "Y", "Z"};
  q.atoms = {EdgeAtom("X", "Y"), EdgeAtom("X", "Z")};
  Builtin ne;
  ne.op = BuiltinOp::kNe;
  ne.lhs = Term::Var("Y");
  ne.rhs = Term::Var("Z");
  q.builtins = {ne};
  auto result = EvaluateQuery(db, q);
  ASSERT_TRUE(result.ok());
  // Only a has two successors: (a,b,c) and (a,c,b).
  EXPECT_EQ(result->size(), 2u);
}

TEST(EvalTest, BuiltinComparisonsOnInts) {
  Database db;
  (void)db.CreateRelation(RelationSchema("num", {"v"}));
  for (int i = 1; i <= 5; ++i) (void)db.Insert("num", Tuple({I(i)}));
  for (auto [op, expected] :
       std::vector<std::pair<BuiltinOp, size_t>>{{BuiltinOp::kLt, 2},
                                                 {BuiltinOp::kLe, 3},
                                                 {BuiltinOp::kGt, 2},
                                                 {BuiltinOp::kGe, 3},
                                                 {BuiltinOp::kEq, 1},
                                                 {BuiltinOp::kNe, 4}}) {
    ConjunctiveQuery q;
    q.head_vars = {"V"};
    Atom a;
    a.relation = "num";
    a.terms = {Term::Var("V")};
    q.atoms = {a};
    Builtin b;
    b.op = op;
    b.lhs = Term::Var("V");
    b.rhs = Term::Const(I(3));
    q.builtins = {b};
    auto result = EvaluateQuery(db, q);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), expected) << BuiltinOpName(op);
  }
}

TEST(EvalTest, UnsafeHeadVariableRejected) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.head_vars = {"W"};
  q.atoms = {EdgeAtom("X", "Y")};
  auto result = EvaluateQuery(db, q);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(EvalTest, UnsafeBuiltinVariableRejected) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.head_vars = {"X"};
  q.atoms = {EdgeAtom("X", "Y")};
  Builtin b;
  b.op = BuiltinOp::kEq;
  b.lhs = Term::Var("Unbound");
  b.rhs = Term::Const(I(1));
  q.builtins = {b};
  EXPECT_FALSE(EvaluateQuery(db, q).ok());
}

TEST(EvalTest, MissingRelationGivesEmptyAnswer) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.head_vars = {"X"};
  Atom a;
  a.relation = "nope";
  a.terms = {Term::Var("X")};
  q.atoms = {a};
  auto result = EvaluateQuery(db, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(EvalTest, EmptyQueryIsBooleanTrue) {
  Database db;
  ConjunctiveQuery q;  // No atoms, no builtins.
  auto result = EvaluateQuery(db, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);  // The empty tuple.
}

TEST(EvalTest, CrossProductWhenNoSharedVars) {
  Database db;
  (void)db.CreateRelation(RelationSchema("l", {"x"}));
  (void)db.CreateRelation(RelationSchema("r", {"y"}));
  (void)db.Insert("l", Tuple({I(1)}));
  (void)db.Insert("l", Tuple({I(2)}));
  (void)db.Insert("r", Tuple({I(10)}));
  (void)db.Insert("r", Tuple({I(20)}));
  (void)db.Insert("r", Tuple({I(30)}));
  ConjunctiveQuery q;
  q.head_vars = {"X", "Y"};
  Atom l;
  l.relation = "l";
  l.terms = {Term::Var("X")};
  Atom r;
  r.relation = "r";
  r.terms = {Term::Var("Y")};
  q.atoms = {l, r};
  auto result = EvaluateQuery(db, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 6u);
}

TEST(EvalTest, BindingsIncludeAllBodyVariables) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.atoms = {EdgeAtom("X", "Y")};
  auto plan = QueryPlan::Compile(q, db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->slots(), (std::vector<std::string>{"X", "Y"}));
  std::vector<std::vector<Value>> bindings;
  std::vector<Value> binding;
  EXPECT_TRUE(plan->Run(db, &binding, [&](const std::vector<Value>& b) {
    bindings.push_back(b);
    return true;
  }));
  ASSERT_EQ(bindings.size(), 4u);
  // A scan visits the log in insertion order.
  EXPECT_EQ(bindings[0], (std::vector<Value>{S("a"), S("b")}));
  EXPECT_EQ(bindings[3], (std::vector<Value>{S("a"), S("c")}));
}

TEST(EvalTest, SinkStopsTheRun) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.atoms = {EdgeAtom("X", "Y"), EdgeAtom("Y", "Z")};
  auto plan = QueryPlan::Compile(q, db);
  ASSERT_TRUE(plan.ok());
  size_t seen = 0;
  std::vector<Value> binding;
  EXPECT_FALSE(plan->Run(db, &binding, [&](const std::vector<Value>&) {
    ++seen;
    return false;
  }));
  EXPECT_EQ(seen, 1u);
}

// Every plan of one query numbers its variables alike, so one head or
// projection serves the plans seeded at each atom.
TEST(EvalTest, SlotsFollowFirstAppearanceWhateverTheSeed) {
  ConjunctiveQuery q;
  q.head_vars = {"Z", "X"};
  q.atoms = {EdgeAtom("X", "Y"), EdgeAtom("Y", "Z")};
  Database db = EdgeDb();
  auto full = QueryPlan::Compile(q, db);
  auto seeded = QueryPlan::Compile(q, db, 1);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(seeded.ok());
  EXPECT_EQ(full->slots(), (std::vector<std::string>{"X", "Y", "Z"}));
  EXPECT_EQ(seeded->slots(), full->slots());
  EXPECT_EQ(seeded->seed_relation(), db.Find("edge"));
  std::vector<Value> row;
  EXPECT_EQ(full->Project({S("a"), S("b"), S("c")}, &row),
            Tuple({S("c"), S("a")}));
}

// A seeded plan scans its seed atom and looks each later step up on its
// first bound position; LookupColumns lists exactly those columns.
TEST(EvalTest, LookupColumnsNameTheColumnsStepsProbe) {
  Atom left;
  left.relation = "$0";
  left.terms = {Term::Var("K"), Term::Var("V")};
  Atom right;
  right.relation = "$1";
  right.terms = {Term::Var("V"), Term::Var("K"), Term::Var("W")};
  ConjunctiveQuery q;
  q.atoms = {left, right};
  Database db = EdgeDb();
  ASSERT_TRUE(db.CreateRelation(RelationSchema("$0", {"k", "v"})).ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema("$1", {"v", "k", "w"})).ok());
  const RelationId zero = db.Find("$0");
  const RelationId one = db.Find("$1");
  auto seed_left = QueryPlan::Compile(q, db, 0);
  auto seed_right = QueryPlan::Compile(q, db, 1);
  auto unseeded = QueryPlan::Compile(q, db);
  ASSERT_TRUE(seed_left.ok() && seed_right.ok() && unseeded.ok());
  EXPECT_TRUE(seed_left->LookupColumns(zero).empty());
  EXPECT_EQ(seed_left->LookupColumns(one), std::vector<size_t>{0});
  EXPECT_EQ(seed_right->LookupColumns(zero), std::vector<size_t>{0});
  EXPECT_TRUE(seed_right->LookupColumns(one).empty());
  // Unseeded: the first step scans $0, the second looks $1 up on V.
  EXPECT_TRUE(unseeded->LookupColumns(zero).empty());
  EXPECT_EQ(unseeded->LookupColumns(one), std::vector<size_t>{0});
  EXPECT_TRUE(unseeded->LookupColumns(db.Find("edge")).empty());
}

TEST(EvalTest, PreBoundVariablesTakeTheFirstSlots) {
  Database db = EdgeDb();
  ConjunctiveQuery q;
  q.atoms = {EdgeAtom("X", "Y"), EdgeAtom("Y", "Z")};
  auto plan = QueryPlan::Compile(q, db, QueryPlan::kNoSeed, {"Z"});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->slots(), (std::vector<std::string>{"Z", "X", "Y"}));
  std::vector<Value> binding{S("d")};
  std::set<Tuple> found;
  plan->Run(db, &binding, [&](const std::vector<Value>& b) {
    EXPECT_EQ(b[0], S("d"));
    found.insert(Tuple({b[1], b[2]}));
    return true;
  });
  // Two-hop paths into d: a->c->d and b->c->d.
  EXPECT_EQ(found, (std::set<Tuple>{Tuple({S("a"), S("c")}),
                                    Tuple({S("b"), S("c")})}));
}

TEST(EvalTest, LargerJoinUsesIndexCorrectly) {
  // Same result regardless of index path: compare a chain join over a bigger
  // relation against a hand-computed count.
  Database db;
  (void)db.CreateRelation(RelationSchema("succ", {"a", "b"}));
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    (void)db.Insert("succ", Tuple({I(i), I(i + 1)}));
  }
  ConjunctiveQuery q;
  q.head_vars = {"A", "D"};
  Atom s1, s2, s3;
  s1.relation = s2.relation = s3.relation = "succ";
  s1.terms = {Term::Var("A"), Term::Var("B")};
  s2.terms = {Term::Var("B"), Term::Var("C")};
  s3.terms = {Term::Var("C"), Term::Var("D")};
  q.atoms = {s1, s2, s3};
  auto result = EvaluateQuery(db, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), static_cast<size_t>(n - 2));
  EXPECT_TRUE(result->count(Tuple({I(0), I(3)})));
}

}  // namespace
}  // namespace p2pdb::rel
