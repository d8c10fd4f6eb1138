#include "src/relational/chase.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "src/relational/eval.h"
#include "src/util/rng.h"

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

Atom PersonAtom() {
  Atom a;
  a.relation = "person";
  a.terms = {Term::Var("X")};
  return a;
}

TEST(ChaseTest, FullyBoundHeadInserts) {
  Database db = PersonDb();
  RuleHead head({PersonAtom()}, {"X"}, db);
  NullFactory nulls(1);
  ChaseStats stats;
  ASSERT_TRUE(head.Apply(&db, {S("ann")}, &nulls, ChaseOptions{}, &stats).ok());
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_TRUE(db.relation("person").Contains(Tuple({S("ann")})));
  // Re-application is a no-op.
  ASSERT_TRUE(head.Apply(&db, {S("ann")}, &nulls, ChaseOptions{}, &stats).ok());
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST(ChaseTest, ExistentialInventsNull) {
  Database db = PersonDb();
  RuleHead head({ParentAtom()}, {"X"}, db);
  NullFactory nulls(1);
  ChaseStats stats;
  ASSERT_TRUE(head.Apply(&db, {S("ann")}, &nulls, ChaseOptions{}, &stats).ok());
  EXPECT_EQ(stats.inserted, 1u);
  const Relation* parent = &db.relation("parent");
  ASSERT_EQ(parent->size(), 1u);
  const Row t = parent->View().at(0);
  EXPECT_EQ(t.at(0), S("ann"));
  EXPECT_TRUE(t.at(1).is_null());
}

// A factory that has minted every sequence number fails the application
// before it inserts anything, instead of re-minting a null already in use.
TEST(ChaseTest, ExhaustedNullFactoryFailsWithoutInserting) {
  Database db = PersonDb();
  (void)db.Insert("parent", Tuple({S("bob"), S("cy")}));
  RuleHead head({ParentAtom(), PersonAtom()}, {"X"}, db);
  NullFactory nulls(1);
  nulls.ReserveThrough(NullFactory::kMaxSeq);
  ChaseStats stats;
  Status st = head.Apply(&db, {S("ann")}, &nulls, ChaseOptions{}, &stats);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(db.relation("parent").size(), 1u);
  EXPECT_EQ(db.relation("person").size(), 0u);
}

TEST(ChaseTest, ProjectionCheckSkipsWhenBoundPartPresent) {
  Database db = PersonDb();
  // parent(ann, bob) exists: projection on the bound position X=ann matches,
  // so the A6 check suppresses a fresh witness.
  (void)db.Insert("parent", Tuple({S("ann"), S("bob")}));
  RuleHead head({ParentAtom()}, {"X"}, db);
  NullFactory nulls(1);
  ChaseStats stats;
  ChaseOptions options;
  options.policy = ChasePolicy::kProjectionCheck;
  ASSERT_TRUE(head.Apply(&db, {S("ann")}, &nulls, options, &stats).ok());
  EXPECT_EQ(stats.inserted, 0u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(db.relation("parent").size(), 1u);
}

TEST(ChaseTest, HomomorphismCheckAgreesOnSingleAtom) {
  Database db = PersonDb();
  (void)db.Insert("parent", Tuple({S("ann"), S("bob")}));
  RuleHead head({ParentAtom()}, {"X"}, db);
  NullFactory nulls(1);
  ChaseStats stats;
  ChaseOptions options;
  options.policy = ChasePolicy::kHomomorphismCheck;
  ASSERT_TRUE(head.Apply(&db, {S("ann")}, &nulls, options, &stats).ok());
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
  RuleHead head({pub, wrote}, {"T", "A"}, db);
  NullFactory nulls(1);
  ChaseStats stats;
  ASSERT_TRUE(head.Apply(&db, {S("t1"), S("alice")}, &nulls, ChaseOptions{},
                         &stats)
                  .ok());
  EXPECT_EQ(stats.inserted, 2u);
  const Row p = db.relation("pub").View().at(0);
  const Row w = db.relation("wrote").View().at(0);
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
  RuleHead head({pub, wrote}, {"T", "A"}, db);
  const std::vector<Value> binding{S("t1"), S("alice")};
  NullFactory nulls(1);

  ChaseStats proj_stats;
  ChaseOptions proj;
  proj.policy = ChasePolicy::kProjectionCheck;
  Database db_proj = db;
  ASSERT_TRUE(head.Apply(&db_proj, binding, &nulls, proj, &proj_stats).ok());
  EXPECT_EQ(proj_stats.inserted, 0u);  // Both projections present: skipped.

  ChaseStats hom_stats;
  ChaseOptions hom;
  hom.policy = ChasePolicy::kHomomorphismCheck;
  Database db_hom = db;
  ASSERT_TRUE(head.Apply(&db_hom, binding, &nulls, hom, &hom_stats).ok());
  EXPECT_EQ(hom_stats.inserted, 2u);  // Properly linked witness created.
}

// Binds X to the null the previous round invented and asks for a new
// witness, until an application invents none or `rounds` run out. Returns
// the number of rounds that ran.
int RunawayChain(uint32_t max_null_depth, int rounds, Database* db,
                 ChaseStats* stats) {
  NullFactory nulls(1);
  ChaseOptions options;
  options.max_null_depth = max_null_depth;
  RuleHead head({ParentAtom()}, {"X"}, *db);
  Value x = S("seed");
  int round = 0;
  while (round < rounds) {
    ++round;
    EXPECT_TRUE(head.Apply(db, {x}, &nulls, options, stats).ok());
    // Find the invented witness for the next round, if any.
    bool found = false;
    const LogView parents = db->relation("parent").View();
    for (size_t i = 0; i < parents.size(); ++i) {
      const Row t = parents.at(i);
      if (t.at(0) == x && t.at(1).is_null()) {
        x = t.at(1);
        found = true;
        break;
      }
    }
    if (!found) break;
  }
  return round;
}

TEST(ChaseTest, DepthBoundSuppressesRunawayNulls) {
  Database db = PersonDb();
  ChaseStats stats;
  RunawayChain(3, 10, &db, &stats);
  EXPECT_GT(stats.truncated, 0u);
  // Depth never exceeds the bound: at most max_null_depth-1 invention rounds.
  EXPECT_LE(db.relation("parent").size(), 3u);
}

// A null's depth saturates at 255, so a bound above 256 could never stop the
// chain: it is rejected. The largest accepted bound still stops it, having
// minted one null at each depth 1..255.
TEST(ChaseTest, DepthBoundAboveLimitRejected) {
  for (uint32_t bound : {257u, 300u}) {
    Database db = PersonDb();
    RuleHead head({ParentAtom()}, {"X"}, db);
    NullFactory nulls(1);
    ChaseOptions options;
    options.max_null_depth = bound;
    ChaseStats stats;
    Status st = head.Apply(&db, {S("seed")}, &nulls, options, &stats);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bound;
    EXPECT_EQ(db.relation("parent").size(), 0u);
  }
  Database db = PersonDb();
  ChaseStats stats;
  EXPECT_LT(RunawayChain(kMaxNullDepthLimit, 400, &db, &stats), 400);
  EXPECT_EQ(stats.truncated, 1u);
  EXPECT_EQ(db.relation("parent").size(), 255u);
}

TEST(ChaseTest, ApplyRuleAppliesEveryBinding) {
  Database db = PersonDb();
  (void)db.CreateRelation(RelationSchema("edge", {"x", "y"}));
  for (auto [x, y] : std::vector<std::pair<const char*, const char*>>{
           {"a", "1"}, {"b", "1"}, {"a", "2"}}) {
    (void)db.Insert("edge", Tuple({S(x), S(y)}));
  }
  ConjunctiveQuery body;
  Atom edge;
  edge.relation = "edge";
  edge.terms = {Term::Var("X"), Term::Var("Y")};
  body.atoms = {edge};
  NullFactory nulls(1);
  ChaseStats stats;
  // Bindings X=a, X=b, X=a again: the repeat is redundant.
  ASSERT_TRUE(ApplyRule(&db, db, body, {PersonAtom()}, &nulls, ChaseOptions{},
                        &stats)
                  .ok());
  EXPECT_EQ(stats.inserted, 2u);
  EXPECT_EQ(stats.skipped, 1u);
}

// --- Property: compiled head application against a brute-force reference.

using MapBinding = std::map<std::string, Value>;

bool Unify(const Atom& atom, Row tuple, MapBinding* binding) {
  if (atom.terms.size() != tuple.arity()) return false;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (!t.is_var()) {
      if (t.constant != tuple.at(i)) return false;
      continue;
    }
    auto [it, inserted] = binding->try_emplace(t.var, tuple.at(i));
    if (!inserted && it->second != tuple.at(i)) return false;
  }
  return true;
}

// Applies `head` under a map binding the way the chase defines it: no plan,
// no index, every witness candidate enumerated.
Status ReferenceApply(Database* db, const std::vector<Atom>& head,
                      const MapBinding& binding, NullFactory* nulls,
                      const ChaseOptions& options, ChaseStats* stats) {
  std::vector<std::string> existentials;
  for (const Atom& a : head) {
    for (const Term& t : a.terms) {
      if (t.is_var() && !binding.count(t.var) &&
          std::find(existentials.begin(), existentials.end(), t.var) ==
              existentials.end()) {
        existentials.push_back(t.var);
      }
    }
  }
  auto instantiate = [](const Atom& a, const MapBinding& b) {
    std::vector<Value> row;
    for (const Term& t : a.terms) {
      row.push_back(t.is_var() ? b.at(t.var) : t.constant);
    }
    return Tuple(std::move(row));
  };
  if (existentials.empty()) {
    bool any_inserted = false;
    for (const Atom& a : head) {
      auto added = db->Insert(a.relation, instantiate(a, binding));
      if (!added.ok()) return added.status();
      if (*added) {
        ++stats->inserted;
        any_inserted = true;
      }
    }
    if (!any_inserted) ++stats->skipped;
    return Status::OK();
  }
  uint32_t base_depth = 0;
  for (const auto& [name, value] : binding) {
    if (value.is_null()) {
      base_depth =
          std::max(base_depth, NullFactory::DepthBitsOf(value.null_id()));
    }
  }
  if (base_depth + 1 >= options.max_null_depth) {
    ++stats->truncated;
    return Status::OK();
  }
  if (options.policy == ChasePolicy::kHomomorphismCheck) {
    bool witness = false;
    std::function<void(size_t, const MapBinding&)> search =
        [&](size_t i, const MapBinding& b) {
          if (witness) return;
          if (i == head.size()) {
            witness = true;
            return;
          }
          const RelationId id = db->Find(head[i].relation);
          const LogView view = id == kNoRelation ? LogView() : db->View(id);
          for (size_t e = 0; view && e < view.size(); ++e) {
            MapBinding extended = b;
            if (Unify(head[i], view.at(e), &extended)) search(i + 1, extended);
          }
        };
    search(0, binding);
    if (witness) {
      ++stats->skipped;
      return Status::OK();
    }
  }
  std::vector<bool> present(head.size(), false);
  if (options.policy == ChasePolicy::kProjectionCheck) {
    bool all_present = true;
    for (size_t i = 0; i < head.size(); ++i) {
      const RelationId id = db->Find(head[i].relation);
      if (id == kNoRelation) return Status::NotFound(head[i].relation);
      const LogView view = db->View(id);
      for (size_t e = 0; e < view.size() && !present[i]; ++e) {
        const Row tuple = view.at(e);
        bool agrees = tuple.arity() == head[i].terms.size();
        for (size_t p = 0; agrees && p < tuple.arity(); ++p) {
          const Term& t = head[i].terms[p];
          if (!t.is_var()) {
            agrees = t.constant == tuple.at(p);
          } else if (binding.count(t.var)) {
            agrees = binding.at(t.var) == tuple.at(p);
          }
        }
        present[i] = agrees;
      }
      all_present = all_present && present[i];
    }
    if (all_present) {
      ++stats->skipped;
      return Status::OK();
    }
  }
  MapBinding extended = binding;
  for (const std::string& v : existentials) {
    auto null = nulls->Fresh(base_depth);
    if (!null.ok()) return null.status();
    extended[v] = *null;
  }
  for (size_t i = 0; i < head.size(); ++i) {
    if (present[i]) continue;
    auto added = db->Insert(head[i].relation, instantiate(head[i], extended));
    if (!added.ok()) return added.status();
    if (*added) ++stats->inserted;
  }
  return Status::OK();
}

// Same relations with the same logs entry by entry, null ids included.
void ExpectSameLogs(const Database& a, const Database& b) {
  ASSERT_EQ(a.relations().size(), b.relations().size());
  for (const Relation& relation : a.relations()) {
    const std::string& name = relation.name();
    const LogView mine = relation.View();
    const LogView theirs = b.relation(name).View();
    ASSERT_EQ(mine.size(), theirs.size()) << name;
    for (size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(mine.at(i), theirs.at(i)) << name << " entry " << i;
    }
  }
}

class HeadPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeadPropertySweep, MatchesBruteForceReference) {
  Rng rng(GetParam());
  auto small_int = [&] {
    return Value::Int(static_cast<int64_t>(rng.NextBelow(3)));
  };
  Database db;
  std::vector<std::string> names{"h0", "h1"};
  std::vector<size_t> arities;
  for (const std::string& name : names) {
    const size_t arity = 1 + rng.NextBelow(3);
    std::vector<std::string> attrs;
    for (size_t i = 0; i < arity; ++i) attrs.push_back("c" + std::to_string(i));
    ASSERT_TRUE(db.CreateRelation(RelationSchema(name, attrs)).ok());
    for (size_t k = rng.NextBelow(6); k > 0; --k) {
      std::vector<Value> row;
      for (size_t i = 0; i < arity; ++i) row.push_back(small_int());
      (void)db.Insert(name, Tuple(std::move(row))).status();
    }
    arities.push_back(arity);
  }

  // A head of 1-2 atoms over two frontier variables (X, Y) and two
  // existential ones (E, F), with constants and repeats.
  const char* vars[] = {"X", "Y", "E", "F"};
  std::vector<Atom> head(1 + rng.NextBelow(2));
  for (Atom& atom : head) {
    const size_t r = rng.NextBelow(names.size());
    atom.relation = names[r];
    for (size_t i = 0; i < arities[r]; ++i) {
      atom.terms.push_back(rng.NextBool(0.2)
                               ? Term::Const(small_int())
                               : Term::Var(vars[rng.NextBelow(4)]));
    }
  }
  const std::vector<std::string> slots{"X", "Y"};
  ChaseOptions options;
  options.policy = rng.NextBool(0.5) ? ChasePolicy::kHomomorphismCheck
                                     : ChasePolicy::kProjectionCheck;
  options.max_null_depth = 2 + static_cast<uint32_t>(rng.NextBelow(2));

  Database reference = db;
  RuleHead compiled(head, slots, db);
  NullFactory nulls(7);
  NullFactory reference_nulls(7);
  ChaseStats stats;
  ChaseStats reference_stats;
  std::vector<Value> minted;  // Nulls invented so far, for later bindings.
  for (int step = 0; step < 12; ++step) {
    std::vector<Value> binding;
    MapBinding map_binding;
    for (const std::string& v : slots) {
      Value value = !minted.empty() && rng.NextBool(0.4)
                        ? minted[rng.NextBelow(minted.size())]
                        : small_int();
      map_binding[v] = value;
      binding.push_back(std::move(value));
    }
    ASSERT_TRUE(compiled.Apply(&db, binding, &nulls, options, &stats).ok());
    ASSERT_TRUE(ReferenceApply(&reference, head, map_binding,
                               &reference_nulls, options, &reference_stats)
                    .ok());
    EXPECT_EQ(stats.inserted, reference_stats.inserted) << "step " << step;
    EXPECT_EQ(stats.skipped, reference_stats.skipped) << "step " << step;
    EXPECT_EQ(stats.truncated, reference_stats.truncated) << "step " << step;
    ExpectSameLogs(db, reference);
    minted.clear();
    for (const std::string& name : names) {
      const LogView view = db.relation(name).View();
      for (size_t e = 0; e < view.size(); ++e) {
        for (const Value& value : view.at(e)) {
          if (value.is_null()) minted.push_back(value);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Randomized, HeadPropertySweep,
                         ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace p2pdb::rel
