// Parser for the P2P system description language.
//
// Grammar (';' separates declarations, '#' comments):
//
//   system     := { node_decl | rule_decl }
//   node_decl  := "node" IDENT "{" { rel_decl | fact_decl } "}"
//   rel_decl   := "rel" IDENT "(" attr { "," attr } ")" ";"
//   fact_decl  := "fact" IDENT "(" value { "," value } ")" ";"
//   rule_decl  := "rule" IDENT ":" body "=>" head ";"
//   body       := element { "," element }
//   element    := NODE "." atom | builtin
//   head       := NODE "." atom { "," NODE "." atom }    (one node)
//   atom       := IDENT "(" term { "," term } ")"
//   builtin    := term OP term           OP in = != < <= > >=
//   term       := VARIABLE | value       (capitalized identifier = variable)
//   value      := STRING | INT | lowercase identifier (a string constant)
//
// Queries use datalog syntax:  q(X, Y) :- a(X, Y), X != Y
#ifndef P2PDB_LANG_PARSER_H_
#define P2PDB_LANG_PARSER_H_

#include <string>

#include "src/core/dynamics.h"
#include "src/core/session.h"
#include "src/core/system.h"
#include "src/relational/cq.h"
#include "src/util/status.h"

namespace p2pdb::lang {

/// Parses a full system description (nodes, schemas, facts, rules).
Result<core::P2PSystem> ParseSystem(const std::string& input);

/// Parses a local query, e.g. "q(X, Y) :- a(X, Y), X != Y".
Result<rel::ConjunctiveQuery> ParseQuery(const std::string& input);

/// Parses a rules-only document (the super-peer's broadcast file, Section 5)
/// and resolves node names against an existing system. Does not mutate the
/// system; callers add the rules via P2PSystem::AddRule or broadcast them as
/// addLink changes.
Result<std::vector<core::CoordinationRule>> ParseRules(
    const core::P2PSystem& system, const std::string& input);

/// The super-peer's rule broadcast (Section 5): parses a rules-only document
/// against `system` and queues every rule on `session` as an addLink change
/// that reaches its head node `at_micros` after the start of the session's
/// next call that runs the network (Session::Run outside an update). "Thus,
/// one peer can change the network topology at runtime." Returns the change
/// script for envelope checking.
Result<core::ChangeScript> BroadcastRules(const core::P2PSystem& system,
                                          core::Session* session,
                                          const std::string& rules_text,
                                          uint64_t at_micros);

}  // namespace p2pdb::lang

#endif  // P2PDB_LANG_PARSER_H_
