#include "src/relational/cq.h"

#include "src/util/string_util.h"

namespace p2pdb::rel {

bool Term::operator==(const Term& other) const {
  if (kind != other.kind) return false;
  return kind == Kind::kVar ? var == other.var : constant == other.constant;
}

std::string Term::ToString() const {
  return is_var() ? var : constant.ToString();
}

std::string Atom::ToString() const {
  std::string out = relation + "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms[i].ToString();
  }
  return out + ")";
}

const char* BuiltinOpName(BuiltinOp op) {
  switch (op) {
    case BuiltinOp::kEq:
      return "=";
    case BuiltinOp::kNe:
      return "!=";
    case BuiltinOp::kLt:
      return "<";
    case BuiltinOp::kLe:
      return "<=";
    case BuiltinOp::kGt:
      return ">";
    case BuiltinOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Builtin::ToString() const {
  return lhs.ToString() + " " + BuiltinOpName(op) + " " + rhs.ToString();
}

bool EvalBuiltin(BuiltinOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case BuiltinOp::kEq:
      return lhs == rhs;
    case BuiltinOp::kNe:
      return !(lhs == rhs);
    case BuiltinOp::kLt:
      return lhs < rhs;
    case BuiltinOp::kLe:
      return lhs < rhs || lhs == rhs;
    case BuiltinOp::kGt:
      return rhs < lhs;
    case BuiltinOp::kGe:
      return rhs < lhs || lhs == rhs;
  }
  return false;
}

Status ConjunctiveQuery::CheckSafe() const {
  std::set<std::string> body_vars;
  for (const Atom& a : atoms) {
    for (const Term& t : a.terms) {
      if (t.is_var()) body_vars.insert(t.var);
    }
  }
  for (const std::string& v : head_vars) {
    if (!body_vars.count(v)) {
      return Status::Unsupported("unsafe query: head variable " + v +
                                 " not bound by any atom");
    }
  }
  for (const Builtin& b : builtins) {
    for (const Term* t : {&b.lhs, &b.rhs}) {
      if (t->is_var() && !body_vars.count(t->var)) {
        return Status::Unsupported("unsafe query: built-in variable " + t->var +
                                   " not bound by any atom");
      }
    }
  }
  return Status::OK();
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = "q(" + JoinStrings(head_vars, ", ") + ") :- ";
  std::vector<std::string> parts;
  for (const Atom& a : atoms) parts.push_back(a.ToString());
  for (const Builtin& b : builtins) parts.push_back(b.ToString());
  return out + JoinStrings(parts, ", ");
}

}  // namespace p2pdb::rel
