// Conjunctive queries with built-in predicates — the query language of both
// rule bodies and rule heads (Definition 2 allows conjunctive formulas with
// built-ins on either side, e.g. rule r4's X != Z).
#ifndef P2PDB_RELATIONAL_CQ_H_
#define P2PDB_RELATIONAL_CQ_H_

#include <set>
#include <string>
#include <vector>

#include "src/relational/value.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// A term in an atom: either a variable (by name) or a constant value.
struct Term {
  enum class Kind { kVar, kConst } kind = Kind::kVar;
  std::string var;
  Value constant;

  static Term Var(std::string name) {
    Term t;
    t.kind = Kind::kVar;
    t.var = std::move(name);
    return t;
  }
  static Term Const(Value v) {
    Term t;
    t.kind = Kind::kConst;
    t.constant = std::move(v);
    return t;
  }
  bool is_var() const { return kind == Kind::kVar; }

  bool operator==(const Term& other) const;
  std::string ToString() const;
};

/// A relational atom r(t1, ..., tk).
struct Atom {
  std::string relation;
  std::vector<Term> terms;

  std::string ToString() const;
};

enum class BuiltinOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* BuiltinOpName(BuiltinOp op);

/// A built-in comparison between two terms, e.g. X != Z.
struct Builtin {
  BuiltinOp op = BuiltinOp::kEq;
  Term lhs;
  Term rhs;

  std::string ToString() const;
};

/// Evaluates a comparison over concrete values. Order across kinds follows
/// Value::operator< (ints < strings < nulls); nulls compare by identity.
bool EvalBuiltin(BuiltinOp op, const Value& lhs, const Value& rhs);

/// A conjunctive query: answer variables, relational atoms, built-ins.
/// With an empty atom list it denotes a boolean/constant query.
struct ConjunctiveQuery {
  std::vector<std::string> head_vars;
  std::vector<Atom> atoms;
  std::vector<Builtin> builtins;

  /// OK iff every head variable and every built-in variable occurs in some
  /// atom (range restriction; the evaluator requires it).
  Status CheckSafe() const;

  std::string ToString() const;
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_CQ_H_
