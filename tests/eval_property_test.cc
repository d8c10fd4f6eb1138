// Property test: the optimized evaluator (greedy ordering + column indexes)
// must agree with a brute-force reference on randomized databases and
// conjunctive queries.
#include <gtest/gtest.h>

#include <functional>

#include "src/relational/eval.h"
#include "src/util/rng.h"

namespace p2pdb::rel {
namespace {

// Reference: enumerate every assignment of tuples to atoms, check
// consistency and built-ins by direct unification, no ordering tricks.
std::set<Tuple> ReferenceEvaluate(const Database& db,
                                  const ConjunctiveQuery& query) {
  std::set<Tuple> results;
  std::vector<const Relation*> relations;
  for (const Atom& a : query.atoms) {
    auto r = db.Get(a.relation);
    if (!r.ok()) return results;  // Empty.
    relations.push_back(*r);
  }
  std::vector<const Tuple*> chosen(query.atoms.size(), nullptr);
  std::function<void(size_t)> enumerate = [&](size_t depth) {
    if (depth == query.atoms.size()) {
      Binding binding;
      for (size_t i = 0; i < query.atoms.size(); ++i) {
        if (!UnifyAtomWithTuple(query.atoms[i], *chosen[i], &binding)) return;
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
    const LogView view = relations[depth]->View();
    for (size_t i = 0; i < view.size(); ++i) {
      chosen[depth] = &view.at(i);
      enumerate(depth + 1);
    }
  };
  enumerate(0);
  return results;
}

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
