// Database update (algorithms A4-A6) as a distributed fix-point computation.
//
// Global update: the super-peer floods UpdateStart along dependency edges;
// each node subscribes (QueryRequest) to every body part of every rule it is
// the head of. Body nodes evaluate the part query against their current data
// and push answers (QueryAnswer) now and after every local change — full
// result sets or deltas (the paper's "delta optimization"). The head joins
// per-part answers and chase-inserts into its database (A6), inventing
// labeled nulls for existential head variables; any change ripples to its own
// subscribers. Data thus iterates around dependency cycles until fix-point.
//
// Semi-naive feed: everything the engine re-evaluates is a range of an
// append-only log (src/relational/tuple_log.h), and answers travel in log
// order. A log stores its rows inline, so no tuple on this path is a heap
// object of its own. The head decodes an answer whole into one flat value
// buffer, checks every row's arity before it uses any, and translates values
// in place through the rule's domain map. Besides the relations, a log is
// kept only where something reads it back:
//  * A multi-part rule appends each part's answers to a log of that part,
//    in arrival order, because the other parts' join plans read it; the
//    join seeds from the entries appended, so a repeated row joins nothing.
//    The log indexes exactly the columns those plans look up.
//  * A single-part rule keeps no part log: its join seeds straight from the
//    decoded rows. A row it saw before (a re-subscription's first answer
//    repeats every row) re-applies a head that is idempotent under set
//    semantics, so the repeat counts as a skipped application.
//  * A subscription whose query can derive one answer twice (several atoms,
//    or a head that drops a variable of its atom) keeps the answers it has
//    shipped in a log indexing no column, and ships only those that log did
//    not hold. In full-answer mode every subscription keeps that log and
//    ships all of it each time. Any other subscription's answers are its
//    relation's matching entries, each derived once, in log order; it ships
//    the rows it derives.
// A full answer (ablation A1) repeats, as its first rows, the previous answer
// of its subscription: per-link FIFO keeps a subscription's answers in order,
// and each subscription's first answer is a delta. So the head skips that
// many rows by count before either kind of rule sees them.
// Each subscription keeps the version row (src/relational/database.h) of its
// last evaluation, so a notify evaluates only the entries appended since.
// Projections go through a reused scratch row,
// and a message is encoded from the rows just derived or from a range of
// last_sent. No answer passes through a sorted set.
//
// Compiled plans: every query the engine runs more than once is compiled
// once into a slot-indexed plan (src/relational/eval.h) where it is kept. A
// rule's head node compiles one join plan per body part, seeded at that
// part, and the rule head (src/relational/chase.h) when the rule's runtime
// is built; each join binding streams straight into the head. A body node
// compiles a subscription's per-atom plans when the request arrives, and a
// request whose query cannot be compiled gets no subscription.
//
// Fix-point detection (the paper's Rules/Paths flag machinery made precise):
//  * a subscription is flagged when its source reports state_u = closed with
//    a final answer (A5's `state == complete`);
//  * a node in a trivial SCC closes when every part of every rule is flagged;
//  * a multi-node SCC runs a token ring (Mattern four-counter termination
//    detection over intra-SCC protocol messages): the leader (minimal id)
//    closes the component after two consecutive token passes that observe
//    identical send/receive counts, equal sums, and all members externally
//    ready. SCC membership comes from the discovery phase's edge knowledge.
//    A token carries only the leader and the sums: the leader compares each
//    pass with the one before (last_round_), and a new session resets both
//    counters and that round (JoinSession).
//
// Query-dependent update: PartialUpdate messages pull only the relations a
// local query needs, carrying the paper's SN node path to bound propagation;
// termination is by network quiescence instead of closure flags.
//
// Dynamics (Section 4): AddRule/DeleteRule notifications re-subscribe or
// unsubscribe at run time and re-open closed nodes; inserted data is never
// retracted, which keeps the final state inside the sound/complete envelope
// of Definition 9.
#ifndef P2PDB_CORE_UPDATE_H_
#define P2PDB_CORE_UPDATE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/core/wire.h"
#include "src/relational/chase.h"
#include "src/relational/eval.h"
#include "src/util/ids.h"

namespace p2pdb::core {

class Peer;

/// Per-node options for the update algorithm.
struct UpdateOptions {
  /// Send only new tuples on re-answer (delta optimization). When false the
  /// full result set is retransmitted on every change (the paper's baseline
  /// behaviour; ablation A1).
  bool delta_answers = true;
  rel::ChaseOptions chase;
};

class UpdateEngine {
 public:
  /// state_u in the paper: open until the node's data is complete.
  enum class State { kIdle, kOpen, kClosed };

  struct Stats {
    uint64_t tuples_inserted = 0;
    uint64_t applications_skipped = 0;
    uint64_t applications_truncated = 0;
    uint64_t joins_evaluated = 0;
    uint64_t answers_sent = 0;
    uint64_t token_passes = 0;
    uint64_t reopens = 0;
  };

  UpdateEngine(Peer* peer, UpdateOptions options)
      : peer_(peer), options_(options) {}

  /// Super-peer entry point: joins the session and floods UpdateStart.
  void StartSession(uint64_t session);

  /// Query-dependent update: pull only `relations` (needed by a local query).
  void StartPartial(uint64_t session, const std::set<std::string>& relations);

  void OnUpdateStart(NodeId from, const wire::UpdateStart& msg);
  void OnQueryRequest(NodeId from, const wire::QueryRequest& msg);
  /// Applies the answer's rows to the rule (JoinAndApply), translating them
  /// in place first.
  void OnQueryAnswer(NodeId from, wire::QueryAnswer msg);
  void OnUnsubscribe(NodeId from, const wire::Unsubscribe& msg);
  void OnPartialUpdate(NodeId from, const wire::PartialUpdate& msg);
  void OnToken(NodeId from, const wire::Token& msg);
  /// The leader's closure broadcast to its SCC.
  void OnSccClosed();
  /// A member's poke: it re-opened or became externally ready.
  void OnReopen();
  void OnAddRule(NodeId from, const wire::AddRuleChange& msg);
  void OnDeleteRule(NodeId from, const wire::DeleteRuleChange& msg);

  State state() const { return state_; }
  const Stats& stats() const { return stats_; }
  uint64_t session() const { return session_; }

  /// Recomputes SCC membership from the peer's (possibly re-discovered)
  /// topology knowledge. Called on session join and by the session driver
  /// after dynamic changes.
  void RefreshScc();

 private:
  /// Head-side state of one rule. It is the join's ReadView: atom p of
  /// `join` is relation p, part p's accumulated answers read in place.
  struct RuleRuntime : rel::ReadView {
    CoordinationRule rule;
    /// For a rule of several parts whose join compiled, per body part every
    /// answer received so far, in arrival order (one log each; its arity is
    /// the part's export arity). Each log indexes the columns the join plans
    /// look up in it, and no other. Empty for a single-part rule, whose
    /// answers no plan reads back.
    std::vector<std::unique_ptr<rel::TupleLog>> part_answers;
    std::vector<bool> part_closed;
    /// Per body part, how many rows the last answer received for it held:
    /// the rows a full answer repeats first.
    std::vector<size_t> last_answer_rows;
    /// The natural join of the parts on their exported variables, plus the
    /// rule's cross-part built-ins.
    rel::ConjunctiveQuery join;
    /// join_plans[p]: `join` seeded at part p. Empty when the join cannot be
    /// compiled (a cross-part built-in over no exported variable).
    std::vector<rel::QueryPlan> join_plans;
    /// The rule head over the join plans' slots.
    rel::RuleHead head;

    rel::RelationId Find(const std::string& name) const override;
    size_t Arity(rel::RelationId part) const override {
      return join.atoms[part].terms.size();
    }
    rel::LogView View(rel::RelationId part) const override {
      return rel::LogView(part_answers[part].get(),
                          part_answers[part]->size());
    }
  };

  /// Body-side state of one subscription from a head node.
  struct Subscription {
    NodeId subscriber = kNoNode;
    std::string rule_id;
    uint32_t part = 0;
    /// The subscription query seeded at each of its atoms, in atom order.
    std::vector<rel::QueryPlan> plans;
    /// The database's version row when the subscription was last evaluated:
    /// every answer it derives from earlier entries alone has been shipped.
    rel::Version evaluated;
    /// Answers already shipped, in the order they were shipped, kept only
    /// when the query can derive one answer twice or answers are full (each
    /// ships all of it); null otherwise, when `evaluated` alone says what was
    /// shipped. Only scanned and asked for membership, so it indexes no
    /// column.
    std::unique_ptr<rel::TupleLog> last_sent;
    bool announced_closed = false;

    /// Takes a newly derived answer: into last_sent when it is kept (which
    /// drops an answer shipped before), else onto `*out`.
    void Keep(rel::Row answer, rel::RowList* out) {
      if (last_sent != nullptr) {
        last_sent->Append(answer);
      } else {
        out->push_back(answer);
      }
    }
  };

  void JoinSession(uint64_t session, bool flood);
  RuleRuntime* EnsureRuleRuntime(const CoordinationRule& rule);
  void SubscribeParts(const RuleRuntime& rr);
  /// Semi-naive rule application of rows [from, rows.size()), answers for
  /// part `delta_part`: a multi-part rule appends them to the part's log and
  /// joins the entries it did not hold against the full accumulated answers
  /// of the other parts; a single-part rule seeds its join with the rows as
  /// they are. Each binding goes to the rule head. Returns true if the local
  /// database changed, even when the application then failed. Complete for
  /// monotone answers, and a multi-part rule joins no binding twice: a
  /// binding is joined by the call for whichever of its tuples arrived last.
  bool JoinAndApply(RuleRuntime* rr, uint32_t delta_part,
                    const rel::RowList& rows, size_t from);
  /// Sends deltas / closure flags to subscribers whose view is stale.
  /// Incremental: evaluates each subscription semi-naively against the log
  /// entries appended since its row (Subscription::evaluated) instead of
  /// re-running the full query.
  void NotifySubscribers();
  /// Sends `ans` to `sub`'s subscriber and records the closed flag it
  /// announced. The tuples are `ans.tuples`, or for a subscription that
  /// keeps last_sent, that log's entries from `from` on.
  void SendAnswer(Subscription* sub, const wire::QueryAnswer& ans,
                  size_t from);
  /// Closes this node if it is open, externally ready, and not in a
  /// non-trivial SCC; then notifies subscribers.
  void MaybeCloseTrivial();
  /// Ring counterpart of MaybeCloseTrivial: when an event invisible to the
  /// intra-SCC counters makes this member externally ready, wake a paused
  /// leader (directly, or with a Reopen poke).
  void PokeRingIfReady();
  void CloseSelf(bool notify_in_scc);
  void ReopenSelf();
  bool ExternallyReady() const;

  // --- SCC token ring ---
  bool IsRingLeader() const;
  NodeId RingSuccessor(NodeId member) const;
  void LeaderStartPass();
  void LeaderEvaluate(const wire::Token& token);
  void CountIntraSccSend(NodeId to);
  void CountIntraSccRecv(NodeId from);
  /// Restarts token passes after a crash-induced pause (see LeaderEvaluate)
  /// once new intra-SCC activity touches the leader.
  void ResumeRingIfPaused();

  void ForwardPartial(const std::set<std::string>& relations,
                      std::vector<NodeId> sn_path);

  Peer* peer_;
  UpdateOptions options_;
  State state_ = State::kIdle;
  uint64_t session_ = 0;
  bool partial_mode_ = false;

  std::map<std::string, RuleRuntime> rule_runtimes_;
  std::vector<Subscription> subscriptions_;

  // SCC termination detection.
  std::set<NodeId> scc_;
  uint64_t intra_sent_ = 0;
  uint64_t intra_recv_ = 0;
  bool token_running_ = false;
  std::optional<wire::Token> last_round_;

  // Query-dependent update dedup.
  std::set<std::string> partial_rules_forwarded_;

  Stats stats_;
};

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_UPDATE_H_
