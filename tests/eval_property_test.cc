// Property test: the compiled evaluator (greedy ordering + column indexes)
// must agree with a brute-force reference on randomized databases and
// conjunctive queries, both evaluated whole and semi-naively from a cut of
// every relation's log.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "src/relational/eval.h"
#include "src/util/rng.h"

namespace p2pdb::rel {
namespace {

using MapBinding = std::map<std::string, Value>;

// The reference's unifier: extends `*binding` so that `atom` matches
// `tuple`, or returns false.
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

// Reference: enumerate every assignment of tuples to atoms, check
// consistency and built-ins by direct unification, no ordering tricks.
std::set<Tuple> ReferenceEvaluate(const ReadView& db,
                                  const ConjunctiveQuery& query) {
  std::set<Tuple> results;
  std::vector<LogView> views;
  for (const Atom& a : query.atoms) {
    const RelationId id = db.Find(a.relation);
    if (id == kNoRelation) return results;  // Empty.
    views.push_back(db.View(id));
  }
  std::vector<Row> chosen(query.atoms.size());
  std::function<void(size_t)> enumerate = [&](size_t depth) {
    if (depth == query.atoms.size()) {
      MapBinding binding;
      for (size_t i = 0; i < query.atoms.size(); ++i) {
        if (!Unify(query.atoms[i], chosen[i], &binding)) return;
      }
      for (const Builtin& b : query.builtins) {
        auto value = [&](const Term& t) {
          return t.is_var() ? binding.at(t.var) : t.constant;
        };
        if (!EvalBuiltin(b.op, value(b.lhs), value(b.rhs))) return;
      }
      std::vector<Value> row;
      for (const std::string& v : query.head_vars) row.push_back(binding.at(v));
      results.insert(Tuple(std::move(row)));
      return;
    }
    for (size_t i = 0; i < views[depth].size(); ++i) {
      chosen[depth] = views[depth].at(i);
      enumerate(depth + 1);
    }
  };
  enumerate(0);
  return results;
}

// `db` with each relation's log cut at its watermark in `cuts`: the state
// before the entries past the cut were appended.
class CutView : public ReadView {
 public:
  CutView(const Database& db, const std::map<std::string, size_t>& cuts)
      : db_(db), cuts_(cuts) {}
  RelationId Find(const std::string& name) const override {
    return db_.Find(name);
  }
  size_t Arity(RelationId id) const override { return db_.Arity(id); }
  LogView View(RelationId id) const override {
    const Relation& found = db_.relation(id);
    return LogView(&found.log(), cuts_.at(found.name()));
  }

 private:
  const Database& db_;
  const std::map<std::string, size_t>& cuts_;
};

struct RandomCase {
  uint64_t seed;
  friend std::ostream& operator<<(std::ostream& os, const RandomCase& c) {
    return os << "seed" << c.seed;
  }
};

class EvalPropertySweep : public ::testing::TestWithParam<RandomCase> {};

TEST_P(EvalPropertySweep, MatchesBruteForceReference) {
  Rng rng(GetParam().seed);
  // Random database: 2-3 relations of arity 1-3, small integer domain so
  // joins actually hit.
  Database db;
  size_t relation_count = 2 + rng.NextBelow(2);
  std::vector<std::string> names;
  std::vector<size_t> arities;
  for (size_t r = 0; r < relation_count; ++r) {
    std::string name = "r" + std::to_string(r);
    size_t arity = 1 + rng.NextBelow(3);
    std::vector<std::string> attrs;
    for (size_t i = 0; i < arity; ++i) attrs.push_back("c" + std::to_string(i));
    ASSERT_TRUE(db.CreateRelation(RelationSchema(name, attrs)).ok());
    size_t rows = rng.NextBelow(12);
    for (size_t k = 0; k < rows; ++k) {
      std::vector<Value> row;
      for (size_t i = 0; i < arity; ++i) {
        row.push_back(Value::Int(static_cast<int64_t>(rng.NextBelow(4))));
      }
      (void)db.Insert(name, Tuple(std::move(row))).status();
    }
    names.push_back(name);
    arities.push_back(arity);
  }

  // Random query: 1-3 atoms over a pool of 4 variables, optional builtin.
  const char* vars[] = {"X", "Y", "Z", "W"};
  // Draws the cut points apart from `rng`, so the cases generated do not
  // depend on them.
  Rng cut_rng(GetParam().seed + 1000);
  for (int trial = 0; trial < 10; ++trial) {
    ConjunctiveQuery q;
    std::set<std::string> used_vars;
    size_t atom_count = 1 + rng.NextBelow(3);
    for (size_t a = 0; a < atom_count; ++a) {
      size_t r = rng.NextBelow(names.size());
      Atom atom;
      atom.relation = names[r];
      for (size_t i = 0; i < arities[r]; ++i) {
        if (rng.NextBool(0.2)) {
          atom.terms.push_back(
              Term::Const(Value::Int(static_cast<int64_t>(rng.NextBelow(4)))));
        } else {
          const char* v = vars[rng.NextBelow(4)];
          atom.terms.push_back(Term::Var(v));
          used_vars.insert(v);
        }
      }
      q.atoms.push_back(std::move(atom));
    }
    if (used_vars.empty()) continue;
    std::vector<std::string> var_list(used_vars.begin(), used_vars.end());
    // Head: random non-empty subset of used variables.
    for (const std::string& v : var_list) {
      if (rng.NextBool(0.6)) q.head_vars.push_back(v);
    }
    if (q.head_vars.empty()) q.head_vars.push_back(var_list[0]);
    // Optional builtin over used variables.
    if (rng.NextBool(0.5) && var_list.size() >= 2) {
      Builtin b;
      b.op = static_cast<BuiltinOp>(rng.NextBelow(6));
      b.lhs = Term::Var(var_list[rng.NextBelow(var_list.size())]);
      b.rhs = rng.NextBool(0.5)
                  ? Term::Var(var_list[rng.NextBelow(var_list.size())])
                  : Term::Const(
                        Value::Int(static_cast<int64_t>(rng.NextBelow(4))));
      q.builtins.push_back(std::move(b));
    }

    auto fast = EvaluateQuery(db, q);
    ASSERT_TRUE(fast.ok()) << q.ToString();
    std::set<Tuple> reference = ReferenceEvaluate(db, q);
    EXPECT_EQ(*fast, reference) << q.ToString() << "\n" << db.ToString();

    // Semi-naive: with every relation cut at a random entry, the answers
    // below the cuts plus each atom's answers seeded from its relation's cut
    // are all the answers.
    std::map<std::string, size_t> cuts;
    for (const std::string& name : names) {
      cuts[name] = cut_rng.NextBelow(db.relation(name).size() + 1);
    }
    std::set<Tuple> semi = ReferenceEvaluate(CutView(db, cuts), q);
    for (size_t i = 0; i < q.atoms.size(); ++i) {
      auto plan = QueryPlan::Compile(q, db, i);
      ASSERT_TRUE(plan.ok()) << q.ToString();
      const std::string& relation = q.atoms[i].relation;
      std::vector<Value> binding;
      std::vector<Value> row;
      plan->RunSeeded(db, cuts[relation], &binding,
                      [&](const std::vector<Value>& b) {
                        semi.emplace(plan->Project(b, &row));
                        return true;
                      });
    }
    EXPECT_EQ(semi, reference) << q.ToString() << "\n" << db.ToString();
  }
}

std::vector<RandomCase> Seeds() {
  std::vector<RandomCase> out;
  for (uint64_t s = 1; s <= 25; ++s) out.push_back(RandomCase{s});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Randomized, EvalPropertySweep,
                         ::testing::ValuesIn(Seeds()));

}  // namespace
}  // namespace p2pdb::rel
