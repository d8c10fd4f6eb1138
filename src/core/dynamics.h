// Dynamic network changes (Section 4): atomic addLink/deleteLink operations,
// change scripts, the sound/complete answer envelope of Definition 9, and the
// separation condition of Definition 10 / Theorem 3.
#ifndef P2PDB_CORE_DYNAMICS_H_
#define P2PDB_CORE_DYNAMICS_H_

#include <set>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/relational/chase.h"
#include "src/util/ids.h"

namespace p2pdb::core {

/// One atomic network change (Definition 8). `at_micros` is an offset from the
/// start of the Session call that delivers the change (see
/// Session::ScheduleChange): the head node is sent its notification once the
/// runtime's clock reaches that call's entry-time NowMicros() + at_micros,
/// whatever discovery or earlier updates already spent on the clock.
struct AtomicChange {
  enum class Kind { kAddLink, kDeleteLink };
  Kind kind = Kind::kAddLink;
  uint64_t at_micros = 0;
  /// For kAddLink: the new coordination rule (head node receives addRule).
  CoordinationRule rule;
  /// For kDeleteLink: the rule id and its head node.
  std::string rule_id;
  NodeId head = kNoNode;

  static AtomicChange Add(uint64_t at_micros, CoordinationRule rule);
  static AtomicChange Delete(uint64_t at_micros, NodeId head,
                             std::string rule_id);
};

using ChangeScript = std::vector<AtomicChange>;

/// Peer churn, beyond Definition 8's link changes: a peer process crashes
/// (its in-memory state and in-flight messages are lost) and may later
/// restart, recovering its database from durable storage (log replay) and
/// rejoining via the discovery/session path. `at_micros` is an
/// offset from the start of the update, like AtomicChange::at_micros:
/// Session::RunUpdateWithChurn fires the event at its entry-time NowMicros()
/// + at_micros, in one time-ordered loop with the queued rule changes.
struct ChurnEvent {
  enum class Kind { kCrash, kRestart };
  Kind kind = Kind::kCrash;
  uint64_t at_micros = 0;
  NodeId node = kNoNode;

  static ChurnEvent Crash(uint64_t at_micros, NodeId node);
  static ChurnEvent Restart(uint64_t at_micros, NodeId node);
};

using ChurnScript = std::vector<ChurnEvent>;

/// Sanity-checks a churn script: events in nondecreasing time order, every
/// restart preceded by a crash of the same node, no double crash/restart.
Status ValidateChurnScript(const ChurnScript& script, size_t node_count);

/// Definition 9 envelope:
///  * sound bound ("upper"): the fix-point with every addLink applied first
///    and no deleteLink executed — the final state must be contained in it;
///  * complete bound ("lower"): the fix-point with every deleteLink applied
///    first and no addLink executed — it must be contained in the final state.
struct Envelope {
  std::vector<rel::Database> upper;  // indexed by node id
  std::vector<rel::Database> lower;
};

Result<Envelope> ComputeEnvelope(const P2PSystem& initial,
                                 const ChangeScript& changes,
                                 const rel::ChaseOptions& chase);

/// Checks lower[i] ⊆ final[i] ⊆ upper[i] for every node (certain tuples are
/// compared exactly; tuples with labeled nulls homomorphically).
bool WithinEnvelope(const std::vector<rel::Database>& final_dbs,
                    const Envelope& envelope);

/// Definition 10.2: `a` is separated from `b` with respect to `changes` iff
/// in the dependency graph of every prefix of the change script (including
/// the empty prefix) no node of `b` is reachable from `a`.
bool IsSeparatedUnderChange(const P2PSystem& initial,
                            const ChangeScript& changes,
                            const std::set<NodeId>& a,
                            const std::set<NodeId>& b);

/// Applies a change script to a system model (ignoring times): adds rules for
/// kAddLink, removes them for kDeleteLink. Used to build envelope systems.
Result<P2PSystem> ApplyChanges(const P2PSystem& initial,
                               const ChangeScript& changes, bool apply_adds,
                               bool apply_deletes);

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_DYNAMICS_H_
