#include "src/relational/chase.h"

#include <gtest/gtest.h>

#include "src/relational/eval.h"

namespace p2pdb::rel {
namespace {

Value S(const char* s) { return Value::Str(s); }

Database PersonDb() {
  Database db;
  (void)db.CreateRelation(RelationSchema("person", {"name"}));
  (void)db.CreateRelation(RelationSchema("parent", {"child", "who"}));
  return db;
}

Atom ParentAtom() {
  Atom a;
  a.relation = "parent";
  a.terms = {Term::Var("X"), Term::Var("Z")};  // Z existential.
  return a;
}

TEST(ChaseTest, FullyBoundHeadInserts) {
  Database db = PersonDb();
  Atom head;
  head.relation = "person";
  head.terms = {Term::Var("X")};
  Binding b{{"X", S("ann")}};
  NullFactory nulls(1);
  ChaseStats stats;
  ASSERT_TRUE(
      ApplyRuleHead(&db, {head}, b, &nulls, ChaseOptions{}, &stats).ok());
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_TRUE((*db.Get("person"))->Contains(Tuple({S("ann")})));
  // Re-application is a no-op.
  ASSERT_TRUE(
      ApplyRuleHead(&db, {head}, b, &nulls, ChaseOptions{}, &stats).ok());
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST(ChaseTest, ExistentialInventsNull) {
  Database db = PersonDb();
  Binding b{{"X", S("ann")}};
  NullFactory nulls(1);
  ChaseStats stats;
  ASSERT_TRUE(ApplyRuleHead(&db, {ParentAtom()}, b, &nulls, ChaseOptions{},
                            &stats)
                  .ok());
  EXPECT_EQ(stats.inserted, 1u);
  const Relation* parent = *db.Get("parent");
  ASSERT_EQ(parent->size(), 1u);
  const Tuple& t = parent->View().at(0);
  EXPECT_EQ(t.at(0), S("ann"));
  EXPECT_TRUE(t.at(1).is_null());
}

TEST(ChaseTest, ProjectionCheckSkipsWhenBoundPartPresent) {
  Database db = PersonDb();
  // parent(ann, bob) exists: projection on the bound position X=ann matches,
  // so the A6 check suppresses a fresh witness.
  (void)db.Insert("parent", Tuple({S("ann"), S("bob")}));
  Binding b{{"X", S("ann")}};
  NullFactory nulls(1);
  ChaseStats stats;
  ChaseOptions options;
  options.policy = ChasePolicy::kProjectionCheck;
  ASSERT_TRUE(
      ApplyRuleHead(&db, {ParentAtom()}, b, &nulls, options, &stats).ok());
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ((*db.Get("parent"))->size(), 1u);
}

TEST(ChaseTest, HomomorphismCheckAgreesOnSingleAtom) {
  Database db = PersonDb();
  (void)db.Insert("parent", Tuple({S("ann"), S("bob")}));
  Binding b{{"X", S("ann")}};
  NullFactory nulls(1);
  ChaseStats stats;
  ChaseOptions options;
  options.policy = ChasePolicy::kHomomorphismCheck;
  ASSERT_TRUE(
      ApplyRuleHead(&db, {ParentAtom()}, b, &nulls, options, &stats).ok());
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST(ChaseTest, SharedExistentialAcrossHeadAtoms) {
  Database db;
  (void)db.CreateRelation(RelationSchema("pub", {"id", "title"}));
  (void)db.CreateRelation(RelationSchema("wrote", {"author", "id"}));
  Atom pub;
  pub.relation = "pub";
  pub.terms = {Term::Var("I"), Term::Var("T")};
  Atom wrote;
  wrote.relation = "wrote";
  wrote.terms = {Term::Var("A"), Term::Var("I")};
  Binding b{{"T", S("t1")}, {"A", S("alice")}};
  NullFactory nulls(1);
  ChaseStats stats;
  ASSERT_TRUE(ApplyRuleHead(&db, {pub, wrote}, b, &nulls, ChaseOptions{},
                            &stats)
                  .ok());
  EXPECT_EQ(stats.inserted, 2u);
  const Tuple& p = (*db.Get("pub"))->View().at(0);
  const Tuple& w = (*db.Get("wrote"))->View().at(0);
  EXPECT_TRUE(p.at(0).is_null());
  EXPECT_EQ(p.at(0), w.at(1));  // Same invented witness in both atoms.
}

TEST(ChaseTest, HomomorphismCheckSeesLinkedAtoms) {
  // pub(i1, t1) and wrote(alice, i2) exist but are NOT linked by a shared id.
  // The projection check (per atom) wrongly considers the head satisfied;
  // the homomorphism check requires a single witness joining both.
  Database db;
  (void)db.CreateRelation(RelationSchema("pub", {"id", "title"}));
  (void)db.CreateRelation(RelationSchema("wrote", {"author", "id"}));
  (void)db.Insert("pub", Tuple({S("i1"), S("t1")}));
  (void)db.Insert("wrote", Tuple({S("alice"), S("i2")}));
  Atom pub;
  pub.relation = "pub";
  pub.terms = {Term::Var("I"), Term::Var("T")};
  Atom wrote;
  wrote.relation = "wrote";
  wrote.terms = {Term::Var("A"), Term::Var("I")};
  Binding b{{"T", S("t1")}, {"A", S("alice")}};
  NullFactory nulls(1);

  ChaseStats proj_stats;
  ChaseOptions proj;
  proj.policy = ChasePolicy::kProjectionCheck;
  Database db_proj = db;
  ASSERT_TRUE(ApplyRuleHead(&db_proj, {pub, wrote}, b, &nulls, proj,
                            &proj_stats)
                  .ok());
  EXPECT_EQ(proj_stats.inserted, 0u);  // Both projections present: skipped.

  ChaseStats hom_stats;
  ChaseOptions hom;
  hom.policy = ChasePolicy::kHomomorphismCheck;
  Database db_hom = db;
  ASSERT_TRUE(
      ApplyRuleHead(&db_hom, {pub, wrote}, b, &nulls, hom, &hom_stats).ok());
  EXPECT_EQ(hom_stats.inserted, 2u);  // Properly linked witness created.
}

TEST(ChaseTest, DepthBoundSuppressesRunawayNulls) {
  Database db = PersonDb();
  NullFactory nulls(1);
  ChaseOptions options;
  options.max_null_depth = 3;
  ChaseStats stats;
  // Simulate a feedback loop: each round binds X to the previously invented
  // null and asks for a new witness.
  Value x = S("seed");
  for (int round = 0; round < 10; ++round) {
    Binding b{{"X", x}};
    Atom head;
    head.relation = "parent";
    head.terms = {Term::Var("X"), Term::Var("Z")};
    ASSERT_TRUE(ApplyRuleHead(&db, {head}, b, &nulls, options, &stats).ok());
    // Find the invented witness for the next round, if any.
    bool found = false;
    const LogView parents = (*db.Get("parent"))->View();
    for (size_t i = 0; i < parents.size(); ++i) {
      const Tuple& t = parents.at(i);
      if (t.at(0) == x && t.at(1).is_null()) {
        x = t.at(1);
        found = true;
        break;
      }
    }
    if (!found) break;
  }
  EXPECT_GT(stats.truncated, 0u);
  // Depth never exceeds the bound: at most max_null_depth-1 invention rounds.
  EXPECT_LE((*db.Get("parent"))->size(), 3u);
}

TEST(ChaseTest, ApplyAllProcessesEveryBinding) {
  Database db = PersonDb();
  Atom head;
  head.relation = "person";
  head.terms = {Term::Var("X")};
  std::vector<Binding> bindings{{{"X", S("a")}}, {{"X", S("b")}},
                                {{"X", S("a")}}};
  NullFactory nulls(1);
  ChaseStats stats;
  ASSERT_TRUE(ApplyRuleHeadAll(&db, {head}, bindings, &nulls, ChaseOptions{},
                               &stats)
                  .ok());
  EXPECT_EQ(stats.inserted, 2u);
  EXPECT_EQ(stats.skipped, 1u);
}

}  // namespace
}  // namespace p2pdb::rel
