// Typed protocol payloads and their binary codecs. Every protocol message is
// serialized before it is handed to the runtime, so byte counts reported by
// the statistics module reflect true wire volumes, and codecs are round-trip
// tested like any other storage format.
//
// A payload's format is its field list (util/serde.h), one per payload in
// wire.cc: Encode() runs it through an Encoder and Decode() through a
// Decoder, which decodes the payload whole or rejects it. The lists for rules
// and their parts live here, shared with the control payloads (control.cc).
#ifndef P2PDB_CORE_WIRE_H_
#define P2PDB_CORE_WIRE_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/net/message.h"
#include "src/relational/codec.h"
#include "src/relational/cq.h"
#include "src/relational/tuple.h"
#include "src/util/ids.h"
#include "src/util/logging.h"
#include "src/util/serde.h"
#include "src/util/status.h"

namespace p2pdb::core::wire {

// Value/tuple codecs live in relational/codec.h (shared with snapshots);
// re-exported here for wire users.
using rel::DecodeTupleList;
using rel::DecodeValue;
using rel::EncodeTuple;
using rel::EncodeTupleList;
using rel::EncodeValue;

using Edge = std::pair<NodeId, NodeId>;

// --- Protocol payloads -----------------------------------------------------

/// A1/A2 requestNodes: flood request on behalf of `origin`.
struct DiscoverRequest {
  NodeId origin = kNoNode;

  std::vector<uint8_t> Encode() const;
  static Result<DiscoverRequest> Decode(ByteView bytes);
};

/// A3 processAnswer: edges aggregated below the sender. `visited` marks the
/// immediate reply of a node that had already joined this origin's instance.
struct DiscoverAnswer {
  NodeId origin = kNoNode;
  bool visited = false;
  std::set<Edge> edges;

  std::vector<uint8_t> Encode() const;
  static Result<DiscoverAnswer> Decode(ByteView bytes);
};

/// Closure broadcast: the origin's complete reachable edge set, pushed down
/// the request tree so every participant can derive its own maximal paths and
/// set state_d = closed.
struct DiscoverClosure {
  NodeId origin = kNoNode;
  std::set<Edge> edges;

  std::vector<uint8_t> Encode() const;
  static Result<DiscoverClosure> Decode(ByteView bytes);
};

/// Global update request flooded from the super-peer.
struct UpdateStart {
  uint64_t session = 0;

  std::vector<uint8_t> Encode() const;
  static Result<UpdateStart> Decode(ByteView bytes);
};

/// A4 Query: the head node subscribes to one body part of one of its rules;
/// the body node evaluates `query` now and on every local change.
struct QueryRequest {
  std::string rule_id;
  uint32_t part = 0;
  rel::ConjunctiveQuery query;

  std::vector<uint8_t> Encode() const;
  static Result<QueryRequest> Decode(ByteView bytes);
};

/// A5 Answer: tuples for one subscription. With the delta optimization only
/// new tuples travel (is_delta = true); `source_closed` carries the body
/// node's state_u so the head can flag the rule (A5's `state == complete`).
struct QueryAnswer {
  std::string rule_id;
  uint32_t part = 0;
  bool is_delta = true;
  bool source_closed = false;
  /// In the sender's log order, decoded into one flat value buffer. Each
  /// row carries its own arity, which the receiver checks. A sender never
  /// repeats a tuple within one answer, but the decoder does not rely on it.
  rel::RowList tuples;

  std::vector<uint8_t> Encode() const;
  /// The bytes Encode() writes when `tuples` holds entries [from,
  /// log.size()) of `log`, written straight from the log; `tuples` itself
  /// is not read.
  std::vector<uint8_t> EncodeFromLog(const rel::LogView& log,
                                     size_t from) const;
  static Result<QueryAnswer> Decode(ByteView bytes);
};

/// Cancels one subscription (deleteLink handling, Section 4).
struct Unsubscribe {
  std::string rule_id;
  uint32_t part = 0;

  std::vector<uint8_t> Encode() const;
  static Result<Unsubscribe> Decode(ByteView bytes);
};

/// Query-dependent update: pulls only relations needed by a local query,
/// carrying the paper's SN node path to bound propagation (A4's ID ∉ SN test).
struct PartialUpdate {
  uint64_t session = 0;
  std::set<std::string> relations;
  std::vector<NodeId> sn_path;

  std::vector<uint8_t> Encode() const;
  static Result<PartialUpdate> Decode(ByteView bytes);
};

/// Termination-detection token circulating a strongly connected component
/// (Mattern four-counter scheme; see update.h): the leader that started the
/// pass, and the intra-SCC send and receive counts and readiness summed over
/// the members it has visited. It carries no pass number: the leader keeps
/// the last round it evaluated, and counts passes in UpdateEngine::Stats.
struct Token {
  NodeId leader = kNoNode;
  uint64_t sum_sent = 0;
  uint64_t sum_recv = 0;
  bool all_ready = true;

  std::vector<uint8_t> Encode() const;
  static Result<Token> Decode(ByteView bytes);
};

/// The payload of a message whose type says everything: the leader's SccClosed
/// broadcast, a member's Reopen poke, and the control plane's StartDiscovery,
/// RefreshScc, DumpRequest and Shutdown (control.h). Its field list is empty,
/// so a payload of any byte fails to decode.
struct Empty {
  std::vector<uint8_t> Encode() const;
  static Result<Empty> Decode(ByteView bytes);
};

/// addLink notification (Definition 8): delivered to the head node.
struct AddRuleChange {
  CoordinationRule rule;

  std::vector<uint8_t> Encode() const;
  static Result<AddRuleChange> Decode(ByteView bytes);
};

/// deleteLink notification: delivered to the head node.
struct DeleteRuleChange {
  std::string rule_id;

  std::vector<uint8_t> Encode() const;
  static Result<DeleteRuleChange> Decode(ByteView bytes);
};

/// Durable form of one applied dynamic rule change — what a head peer writes
/// to its WAL (storage::StorageManager::LogRuleChange) so that Recover() can
/// replay mid-session addLink/deleteLink without the change driver
/// re-delivering them. kAdd carries the full rule; kDelete only the id.
struct RuleChangeRecord {
  enum class Kind : uint8_t { kAdd = 1, kDelete = 2 };
  Kind kind = Kind::kAdd;
  CoordinationRule rule;  // kAdd only.
  std::string rule_id;    // kDelete only.

  static RuleChangeRecord Add(CoordinationRule rule);
  static RuleChangeRecord Delete(std::string rule_id);

  std::vector<uint8_t> Encode() const;
  static Result<RuleChangeRecord> Decode(ByteView bytes);
};

/// Decodes `msg`'s payload as a `Payload`. Every dispatcher drops a
/// malformed payload with one warning that names it and its sender, instead
/// of acting on it.
template <typename Payload>
std::optional<Payload> DecodePayload(const net::Message& msg) {
  auto decoded = Payload::Decode(msg.payload);
  if (!decoded.ok()) {
    P2PDB_LOG(kWarn) << "dropping malformed " << net::MessageTypeName(msg.type)
                     << " from node " << msg.from << ": "
                     << decoded.status().ToString();
    return std::nullopt;
  }
  return decoded.MoveValue();
}

// --- Field lists shared by wire.cc and control.cc --------------------------

/// A variable (kind 0, then its name) or a constant (kind 1, its value).
template <class IO>
void Fields(IO& io, FieldRef<IO, rel::Term> t) {
  io.Enum(t.kind, rel::Term::Kind::kConst, "term kind");
  if (t.is_var()) {
    io.Str(t.var);
  } else {
    io.Use(t.constant, rel::EncodeValue, rel::DecodeValue);
  }
}

template <class IO>
void Fields(IO& io, FieldRef<IO, rel::Atom> a) {
  io.Str(a.relation);
  io.Each(a.terms, [&io](auto& t) { Fields(io, t); });
}

template <class IO>
void Fields(IO& io, FieldRef<IO, rel::Builtin> b) {
  io.Enum(b.op, rel::BuiltinOp::kGe, "builtin op");
  Fields(io, b.lhs);
  Fields(io, b.rhs);
}

/// Id, head node, head atoms, each body part (node, atoms, built-ins), the
/// cross-part built-ins, then the domain map.
template <class IO>
void Fields(IO& io, FieldRef<IO, CoordinationRule> rule) {
  auto atoms = [&io](auto& a) { Fields(io, a); };
  auto builtins = [&io](auto& b) { Fields(io, b); };
  io.Str(rule.id);
  io.U32(rule.head_node);
  io.Each(rule.head_atoms, atoms);
  io.Each(rule.body, [&](auto& part) {
    io.U32(part.node);
    io.Each(part.atoms, atoms);
    io.Each(part.builtins, builtins);
  });
  io.Each(rule.cross_builtins, builtins);
  Fields(io, rule.domain_map);
}

}  // namespace p2pdb::core::wire

#endif  // P2PDB_CORE_WIRE_H_
