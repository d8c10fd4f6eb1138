#include "src/lang/parser.h"

#include <cctype>
#include <map>

#include "src/lang/lexer.h"
#include "src/util/string_util.h"

namespace p2pdb::lang {

namespace {

bool IsVariableName(const std::string& name) {
  return !name.empty() && std::isupper(static_cast<unsigned char>(name[0]));
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  // A parsed rule before node names are resolved against a system.
  struct PendingRule {
    std::string id;
    std::string head_node;
    std::vector<std::pair<std::string, rel::Atom>> body_atoms;
    std::vector<rel::Builtin> builtins;
    std::vector<rel::Atom> head_atoms;
    int line = 0;
  };

  Result<core::P2PSystem> ParseSystem() {
    core::P2PSystem system;
    // Rules may reference nodes declared later, so collect them first and
    // register at the end.
    std::vector<PendingRule> pending;

    while (!At(TokenKind::kEof)) {
      if (AtKeyword("node")) {
        P2PDB_RETURN_IF_ERROR(ParseNode(&system));
      } else if (AtKeyword("rule")) {
        PendingRule rule;
        rule.line = Peek().line;
        P2PDB_RETURN_IF_ERROR(ParseRule(&rule.id, &rule.head_node,
                                        &rule.body_atoms, &rule.builtins,
                                        &rule.head_atoms));
        pending.push_back(std::move(rule));
      } else {
        return Error("expected 'node' or 'rule'");
      }
    }

    for (PendingRule& p : pending) {
      auto rule = ResolvePendingRule(system, std::move(p));
      if (!rule.ok()) return rule.status();
      P2PDB_RETURN_IF_ERROR(system.AddRule(rule.MoveValue()));
    }
    return system;
  }

  /// Parses a document consisting solely of rule declarations (the format a
  /// super-peer broadcasts per Section 5) and resolves them against an
  /// existing system.
  Result<std::vector<core::CoordinationRule>> ParseRulesAgainst(
      const core::P2PSystem& system) {
    std::vector<core::CoordinationRule> out;
    while (!At(TokenKind::kEof)) {
      if (!AtKeyword("rule")) return Error("expected 'rule'");
      PendingRule pending;
      pending.line = Peek().line;
      P2PDB_RETURN_IF_ERROR(ParseRule(&pending.id, &pending.head_node,
                                      &pending.body_atoms, &pending.builtins,
                                      &pending.head_atoms));
      auto rule = ResolvePendingRule(system, std::move(pending));
      if (!rule.ok()) return rule.status();
      out.push_back(rule.MoveValue());
    }
    return out;
  }

  static Result<core::CoordinationRule> ResolvePendingRule(
      const core::P2PSystem& system, PendingRule p) {
    core::CoordinationRule rule;
    rule.id = p.id;
    auto head_id = system.NodeByName(p.head_node);
    if (!head_id.ok()) {
      return Status::ParseError(StrFormat("rule %s (line %d): unknown node %s",
                                          p.id.c_str(), p.line,
                                          p.head_node.c_str()));
    }
    rule.head_node = *head_id;
    rule.head_atoms = std::move(p.head_atoms);
    // Group body atoms by node into parts, preserving first-appearance
    // order of nodes.
    std::vector<std::string> node_order;
    std::map<std::string, core::CoordinationRule::BodyPart> parts;
    for (auto& [node_name, atom] : p.body_atoms) {
      auto body_id = system.NodeByName(node_name);
      if (!body_id.ok()) {
        return Status::ParseError(
            StrFormat("rule %s (line %d): unknown node %s", p.id.c_str(),
                      p.line, node_name.c_str()));
      }
      if (!parts.count(node_name)) {
        node_order.push_back(node_name);
        parts[node_name].node = *body_id;
      }
      parts[node_name].atoms.push_back(std::move(atom));
    }
    // A built-in goes into the single part containing all its variables,
    // else it is a cross-part built-in evaluated at the head.
    for (rel::Builtin& b : p.builtins) {
      std::string owner;
      bool cross = false;
      for (const rel::Term* t : {&b.lhs, &b.rhs}) {
        if (!t->is_var()) continue;
        std::string found;
        for (auto& [node_name, part] : parts) {
          for (const rel::Atom& a : part.atoms) {
            for (const rel::Term& at : a.terms) {
              if (at.is_var() && at.var == t->var) found = node_name;
            }
          }
        }
        if (found.empty()) {
          return Status::ParseError(
              StrFormat("rule %s (line %d): built-in variable %s unbound",
                        p.id.c_str(), p.line, t->var.c_str()));
        }
        if (owner.empty()) {
          owner = found;
        } else if (owner != found) {
          cross = true;
        }
      }
      if (cross || owner.empty()) {
        rule.cross_builtins.push_back(std::move(b));
      } else {
        parts[owner].builtins.push_back(std::move(b));
      }
    }
    for (const std::string& node_name : node_order) {
      rule.body.push_back(std::move(parts[node_name]));
    }
    return rule;
  }

  Result<rel::ConjunctiveQuery> ParseQueryBody() {
    rel::ConjunctiveQuery query;
    // Head: IDENT "(" vars ")" ":-"
    P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kIdent));
    P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!At(TokenKind::kRParen)) {
      do {
        if (!At(TokenKind::kIdent) || !IsVariableName(Peek().text)) {
          return Error("expected variable in query head");
        }
        query.head_vars.push_back(Peek().text);
        Next();
      } while (Accept(TokenKind::kComma));
    }
    P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kTurnstile));
    do {
      // atom or builtin: lookahead for IDENT '('.
      if (At(TokenKind::kIdent) && PeekAhead(1).kind == TokenKind::kLParen &&
          !IsVariableName(Peek().text)) {
        rel::Atom atom;
        atom.relation = Peek().text;
        Next();
        P2PDB_RETURN_IF_ERROR(ParseTermList(&atom.terms));
        query.atoms.push_back(std::move(atom));
      } else {
        rel::Builtin builtin;
        P2PDB_RETURN_IF_ERROR(ParseBuiltin(&builtin));
        query.builtins.push_back(std::move(builtin));
      }
    } while (Accept(TokenKind::kComma));
    if (!At(TokenKind::kEof) && !Accept(TokenKind::kSemi)) {
      return Error("trailing input after query");
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAhead(size_t n) const {
    size_t i = pos_ + n;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Next() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  bool AtKeyword(const std::string& kw) const {
    return At(TokenKind::kIdent) && Peek().text == kw;
  }
  bool Accept(TokenKind kind) {
    if (!At(kind)) return false;
    Next();
    return true;
  }
  Status Expect(TokenKind kind) {
    if (!At(kind)) {
      return Status::ParseError(
          StrFormat("line %d:%d: expected %s, found %s", Peek().line,
                    Peek().column, TokenKindName(kind),
                    TokenKindName(Peek().kind)));
    }
    Next();
    return Status::OK();
  }
  Status Error(const std::string& what) const {
    return Status::ParseError(StrFormat("line %d:%d: %s", Peek().line,
                                        Peek().column, what.c_str()));
  }

  Status ParseNode(core::P2PSystem* system) {
    Next();  // 'node'
    if (!At(TokenKind::kIdent)) return Error("expected node name");
    std::string name = Peek().text;
    Next();
    P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    rel::Database db;
    struct PendingFact {
      std::string relation;
      rel::Tuple tuple;
    };
    std::vector<PendingFact> facts;
    while (!Accept(TokenKind::kRBrace)) {
      if (AtKeyword("rel")) {
        Next();
        if (!At(TokenKind::kIdent)) return Error("expected relation name");
        std::string rel_name = Peek().text;
        Next();
        P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        std::vector<std::string> attrs;
        do {
          if (!At(TokenKind::kIdent)) return Error("expected attribute name");
          attrs.push_back(Peek().text);
          Next();
        } while (Accept(TokenKind::kComma));
        P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kSemi));
        P2PDB_RETURN_IF_ERROR(
            db.CreateRelation(rel::RelationSchema(rel_name, attrs)).status());
      } else if (AtKeyword("fact")) {
        Next();
        if (!At(TokenKind::kIdent)) return Error("expected relation name");
        PendingFact fact;
        fact.relation = Peek().text;
        Next();
        P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        std::vector<rel::Value> values;
        do {
          auto v = ParseValue();
          if (!v.ok()) return v.status();
          values.push_back(std::move(*v));
        } while (Accept(TokenKind::kComma));
        P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kSemi));
        fact.tuple = rel::Tuple(std::move(values));
        facts.push_back(std::move(fact));
      } else {
        return Error("expected 'rel' or 'fact'");
      }
    }
    for (PendingFact& f : facts) {
      P2PDB_RETURN_IF_ERROR(db.Insert(f.relation, std::move(f.tuple)).status());
    }
    return system->AddNode(std::move(name), std::move(db));
  }

  Result<rel::Value> ParseValue() {
    if (At(TokenKind::kString)) {
      rel::Value v = rel::Value::Str(Peek().text);
      Next();
      return v;
    }
    if (At(TokenKind::kInt)) {
      rel::Value v = rel::Value::Int(Peek().int_value);
      Next();
      return v;
    }
    if (At(TokenKind::kIdent) && !IsVariableName(Peek().text)) {
      rel::Value v = rel::Value::Str(Peek().text);
      Next();
      return v;
    }
    return Status::ParseError(StrFormat("line %d:%d: expected a constant",
                                        Peek().line, Peek().column));
  }

  Result<rel::Term> ParseTerm() {
    if (At(TokenKind::kIdent) && IsVariableName(Peek().text)) {
      rel::Term t = rel::Term::Var(Peek().text);
      Next();
      return t;
    }
    auto v = ParseValue();
    if (!v.ok()) return v.status();
    return rel::Term::Const(std::move(*v));
  }

  Status ParseTermList(std::vector<rel::Term>* terms) {
    P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    do {
      auto t = ParseTerm();
      if (!t.ok()) return t.status();
      terms->push_back(std::move(*t));
    } while (Accept(TokenKind::kComma));
    return Expect(TokenKind::kRParen);
  }

  Status ParseBuiltin(rel::Builtin* builtin) {
    auto lhs = ParseTerm();
    if (!lhs.ok()) return lhs.status();
    builtin->lhs = std::move(*lhs);
    switch (Peek().kind) {
      case TokenKind::kEq:
        builtin->op = rel::BuiltinOp::kEq;
        break;
      case TokenKind::kNe:
        builtin->op = rel::BuiltinOp::kNe;
        break;
      case TokenKind::kLt:
        builtin->op = rel::BuiltinOp::kLt;
        break;
      case TokenKind::kLe:
        builtin->op = rel::BuiltinOp::kLe;
        break;
      case TokenKind::kGt:
        builtin->op = rel::BuiltinOp::kGt;
        break;
      case TokenKind::kGe:
        builtin->op = rel::BuiltinOp::kGe;
        break;
      default:
        return Error("expected comparison operator");
    }
    Next();
    auto rhs = ParseTerm();
    if (!rhs.ok()) return rhs.status();
    builtin->rhs = std::move(*rhs);
    return Status::OK();
  }

  // rule_decl := "rule" IDENT ":" body "=>" head ";"
  Status ParseRule(std::string* id, std::string* head_node,
                   std::vector<std::pair<std::string, rel::Atom>>* body_atoms,
                   std::vector<rel::Builtin>* builtins,
                   std::vector<rel::Atom>* head_atoms) {
    Next();  // 'rule'
    if (!At(TokenKind::kIdent)) return Error("expected rule name");
    *id = Peek().text;
    Next();
    P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kColon));
    // Body elements.
    do {
      if (At(TokenKind::kIdent) && PeekAhead(1).kind == TokenKind::kDot) {
        std::string node_name = Peek().text;
        Next();
        Next();  // '.'
        if (!At(TokenKind::kIdent)) return Error("expected relation name");
        rel::Atom atom;
        atom.relation = Peek().text;
        Next();
        P2PDB_RETURN_IF_ERROR(ParseTermList(&atom.terms));
        body_atoms->emplace_back(std::move(node_name), std::move(atom));
      } else {
        rel::Builtin builtin;
        P2PDB_RETURN_IF_ERROR(ParseBuiltin(&builtin));
        builtins->push_back(std::move(builtin));
      }
    } while (Accept(TokenKind::kComma));
    P2PDB_RETURN_IF_ERROR(Expect(TokenKind::kArrow));
    // Head atoms: all at one node.
    do {
      if (!At(TokenKind::kIdent) || PeekAhead(1).kind != TokenKind::kDot) {
        return Error("expected Node.relation(...) in rule head");
      }
      std::string node_name = Peek().text;
      Next();
      Next();  // '.'
      if (head_node->empty()) {
        *head_node = node_name;
      } else if (*head_node != node_name) {
        return Error("rule head atoms must all be at one node");
      }
      if (!At(TokenKind::kIdent)) return Error("expected relation name");
      rel::Atom atom;
      atom.relation = Peek().text;
      Next();
      P2PDB_RETURN_IF_ERROR(ParseTermList(&atom.terms));
      head_atoms->push_back(std::move(atom));
    } while (Accept(TokenKind::kComma));
    return Expect(TokenKind::kSemi);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<core::P2PSystem> ParseSystem(const std::string& input) {
  auto tokens = Tokenize(input);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.ParseSystem();
}

Result<rel::ConjunctiveQuery> ParseQuery(const std::string& input) {
  auto tokens = Tokenize(input);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.ParseQueryBody();
}

Result<std::vector<core::CoordinationRule>> ParseRules(
    const core::P2PSystem& system, const std::string& input) {
  auto tokens = Tokenize(input);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.ParseRulesAgainst(system);
}

Result<core::ChangeScript> BroadcastRules(const core::P2PSystem& system,
                                          core::Session* session,
                                          const std::string& rules_text,
                                          uint64_t at_micros) {
  auto rules = ParseRules(system, rules_text);
  if (!rules.ok()) return rules.status();
  core::ChangeScript script;
  for (core::CoordinationRule& rule : *rules) {
    core::AtomicChange change =
        core::AtomicChange::Add(at_micros, std::move(rule));
    session->ScheduleChange(change);
    script.push_back(std::move(change));
  }
  return script;
}

}  // namespace p2pdb::lang
