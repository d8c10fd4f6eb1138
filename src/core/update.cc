#include "src/core/update.h"

#include <algorithm>

#include "src/core/dependency.h"
#include "src/core/peer.h"
#include "src/obs/metrics.h"
#include "src/relational/eval.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace p2pdb::core {

namespace {
bool Contains(const std::vector<NodeId>& path, NodeId n) {
  return std::find(path.begin(), path.end(), n) != path.end();
}

// Whether evaluating `query` can derive one answer twice. With one atom and
// a head that keeps each of its variables, an answer determines the entry it
// came from, and a relation's log holds no entry twice.
bool CanRepeatAnswers(const rel::ConjunctiveQuery& query) {
  if (query.atoms.size() != 1) return true;
  for (const rel::Term& t : query.atoms[0].terms) {
    if (t.is_var() && std::find(query.head_vars.begin(), query.head_vars.end(),
                                t.var) == query.head_vars.end()) {
      return true;
    }
  }
  return false;
}
}  // namespace

void UpdateEngine::StartSession(uint64_t session) {
  JoinSession(session, /*flood=*/true);
}

void UpdateEngine::JoinSession(uint64_t session, bool flood) {
  if (state_ != State::kIdle && session_ == session) return;
  if (session_ != session) {
    // Fix-point detection is per session: a peer crash can lose messages a
    // ring member counted as sent, and carrying that imbalance into the next
    // session would leave the Mattern check (sent == recv) unsatisfiable
    // forever. Per-link FIFO makes the reset consistent — UpdateStart always
    // precedes any counted message of the new session on the same link.
    intra_sent_ = 0;
    intra_recv_ = 0;
    last_round_.reset();
    token_running_ = false;
  }
  session_ = session;
  partial_mode_ = false;
  RefreshScc();
  state_ = State::kOpen;

  if (flood) {
    wire::UpdateStart start{session};
    for (NodeId t : peer_->DependencyTargets()) {
      peer_->Send(t, net::MessageType::kUpdateStart, start.Encode());
    }
  }
  for (const CoordinationRule& r : peer_->rules()) {
    RuleRuntime* rr = EnsureRuleRuntime(r);
    SubscribeParts(*rr);
  }
  if (scc_.size() > 1 && IsRingLeader() && !token_running_) LeaderStartPass();
  if (peer_->rules().empty()) {
    // A2: a node with no rules holds complete data from the start.
    CloseSelf(/*notify_in_scc=*/true);
  }
}

void UpdateEngine::RefreshScc() {
  scc_ = peer_->OwnScc();
  if (scc_.size() > 1 && IsRingLeader() && state_ != State::kIdle &&
      !token_running_) {
    LeaderStartPass();
  }
}

rel::RelationId UpdateEngine::RuleRuntime::Find(
    const std::string& name) const {
  for (rel::RelationId p = 0; p < join.atoms.size(); ++p) {
    if (join.atoms[p].relation == name) return p;
  }
  return rel::kNoRelation;
}

UpdateEngine::RuleRuntime* UpdateEngine::EnsureRuleRuntime(
    const CoordinationRule& rule) {
  auto [it, inserted] = rule_runtimes_.try_emplace(rule.id);
  RuleRuntime& rr = it->second;
  if (!inserted) return &rr;
  rr.rule = rule;
  rr.part_closed.assign(rule.body.size(), false);
  rr.last_answer_rows.assign(rule.body.size(), 0);
  // One atom per part over the part's exported variables: the natural join
  // on shared variable names. The bindings cover every exported variable,
  // which includes all frontier variables of the head.
  for (size_t p = 0; p < rule.body.size(); ++p) {
    rel::Atom atom;
    atom.relation = "$" + std::to_string(p);
    for (std::string& v : rule.PartExportVars(p)) {
      atom.terms.push_back(rel::Term::Var(std::move(v)));
    }
    rr.join.atoms.push_back(std::move(atom));
  }
  rr.join.builtins = rule.cross_builtins;
  for (size_t p = 0; p < rule.body.size(); ++p) {
    auto plan = rel::QueryPlan::Compile(rr.join, rr, p);
    if (!plan.ok()) {
      P2PDB_LOG(kWarn) << "rule join failed for " << rule.id << ": "
                       << plan.status().ToString();
      rr.join_plans.clear();
      break;
    }
    rr.join_plans.push_back(plan.MoveValue());
  }
  if (!rr.join_plans.empty()) {
    rr.head = rel::RuleHead(rule.head_atoms, rr.join_plans[0].slots(),
                            peer_->db());
  }
  // A part log is read only by the other parts' join plans (and scanned as
  // the seed), so a rule of one part keeps none, and a log indexes exactly
  // the columns those plans look up.
  if (rr.join_plans.size() < 2) return &rr;
  for (rel::RelationId p = 0; p < rr.join.atoms.size(); ++p) {
    std::vector<size_t> columns;
    for (const rel::QueryPlan& plan : rr.join_plans) {
      for (size_t c : plan.LookupColumns(p)) columns.push_back(c);
    }
    rr.part_answers.push_back(
        std::make_unique<rel::TupleLog>(rr.Arity(p), std::move(columns)));
  }
  return &rr;
}

void UpdateEngine::SubscribeParts(const RuleRuntime& rr) {
  for (size_t p = 0; p < rr.rule.body.size(); ++p) {
    NodeId target = rr.rule.body[p].node;
    wire::QueryRequest req;
    req.rule_id = rr.rule.id;
    req.part = static_cast<uint32_t>(p);
    req.query = rr.rule.PartQuery(p);
    CountIntraSccSend(target);
    peer_->Send(target, net::MessageType::kQueryRequest, req.Encode());
  }
}

void UpdateEngine::OnUpdateStart(NodeId from, const wire::UpdateStart& msg) {
  (void)from;
  JoinSession(msg.session, /*flood=*/true);
}

void UpdateEngine::OnQueryRequest(NodeId from, const wire::QueryRequest& msg) {
  CountIntraSccRecv(from);
  auto same = [&](const Subscription& s) {
    return s.subscriber == from && s.rule_id == msg.rule_id &&
           s.part == msg.part;
  };
  // Compile before subscribing: a query that cannot be evaluated is warned
  // about once and keeps no subscription, not even one it would replace.
  const rel::Database& db = peer_->db();
  auto full = rel::QueryPlan::Compile(msg.query, db);
  std::vector<rel::QueryPlan> plans;
  // A seeded plan fails only where the full plan does.
  for (size_t i = 0; full.ok() && i < msg.query.atoms.size(); ++i) {
    plans.push_back(rel::QueryPlan::Compile(msg.query, db, i).MoveValue());
  }
  if (!full.ok()) {
    P2PDB_LOG(kWarn) << "subscription query failed at node " << peer_->id()
                     << ": " << full.status().ToString();
    std::erase_if(subscriptions_, same);
    return;
  }
  // Replace any previous subscription for the same (subscriber, rule, part):
  // re-subscription resets the delta baseline, so the subscriber receives the
  // full current result again.
  auto it = std::find_if(subscriptions_.begin(), subscriptions_.end(), same);
  Subscription* sub = it != subscriptions_.end()
                          ? &*it
                          : &subscriptions_.emplace_back();
  sub->subscriber = from;
  sub->rule_id = msg.rule_id;
  sub->part = msg.part;
  sub->plans = std::move(plans);
  // Full-answer mode ships the whole result each time, from last_sent.
  sub->last_sent = CanRepeatAnswers(msg.query) || !options_.delta_answers
                       ? std::make_unique<rel::TupleLog>(
                             msg.query.head_vars.size(), std::vector<size_t>{})
                       : nullptr;
  sub->evaluated = db.version();

  // The initial answer is the delta from the empty set: every answer, in the
  // order evaluation finds it.
  wire::QueryAnswer ans;
  std::vector<rel::Value> binding;
  std::vector<rel::Value> row;
  full->Run(db, &binding, [&](const std::vector<rel::Value>& b) {
    sub->Keep(full->Project(b, &row), &ans.tuples);
    return true;
  });
  ans.rule_id = msg.rule_id;
  ans.part = msg.part;
  ans.is_delta = true;
  ans.source_closed = state_ == State::kClosed;
  SendAnswer(sub, ans, 0);
}

void UpdateEngine::SendAnswer(Subscription* sub, const wire::QueryAnswer& ans,
                              size_t from) {
  CountIntraSccSend(sub->subscriber);
  ++stats_.answers_sent;
  const rel::TupleLog* sent = sub->last_sent.get();
  peer_->Send(sub->subscriber, net::MessageType::kQueryAnswer,
              sent == nullptr
                  ? ans.Encode()
                  : ans.EncodeFromLog(rel::LogView(sent, sent->size()), from));
  sub->announced_closed = ans.source_closed;
}

void UpdateEngine::OnQueryAnswer(NodeId from, wire::QueryAnswer msg) {
  CountIntraSccRecv(from);
  auto it = rule_runtimes_.find(msg.rule_id);
  if (it == rule_runtimes_.end()) return;  // Rule deleted meanwhile.
  RuleRuntime& rr = it->second;
  if (msg.part >= rr.join.atoms.size()) return;

  // A malformed answer is rejected whole: nothing is applied and the part's
  // closed flag stays as it was. It was still received, as counted above.
  const size_t arity = rr.join.atoms[msg.part].terms.size();
  for (rel::Row row : msg.tuples) {
    if (row.arity() != arity) {
      P2PDB_LOG(kWarn) << "node " << peer_->id() << " drops an answer from "
                       << from << " for rule " << msg.rule_id << " part "
                       << msg.part << ": a tuple has arity " << row.arity()
                       << ", want " << arity;
      rr.last_answer_rows[msg.part] = 0;  // The next full answer is all new.
      return;
    }
  }
  // The rule's domain relation (if any) translates foreign constants into
  // this node's vocabulary first, in place.
  if (!rr.rule.domain_map.empty()) {
    for (rel::Value& v : msg.tuples.values()) v = rr.rule.domain_map.Apply(v);
  }
  bool part_was_closed = rr.part_closed[msg.part];
  rr.part_closed[msg.part] = msg.source_closed;
  // A full answer repeats the previous answer's rows first (update.h), so
  // only the rows past them are new.
  const size_t first_new =
      msg.is_delta
          ? 0
          : std::min(rr.last_answer_rows[msg.part], msg.tuples.size());
  rr.last_answer_rows[msg.part] = msg.tuples.size();

  bool changed = msg.tuples.size() > first_new &&
                 JoinAndApply(&rr, msg.part, msg.tuples, first_new);

  // Dynamics: a source that re-opened, or new data after our closure,
  // re-opens this node (Section 4).
  if (state_ == State::kClosed &&
      ((part_was_closed && !msg.source_closed) || changed)) {
    ReopenSelf();
  }
  if (changed) NotifySubscribers();
  // The closed flag came from outside the SCC, invisible to the intra-SCC
  // counters — a paused ring would never observe the readiness change.
  if (msg.source_closed && !part_was_closed &&
      !scc_.count(rr.rule.body[msg.part].node)) {
    PokeRingIfReady();
  }
  MaybeCloseTrivial();
}

void UpdateEngine::PokeRingIfReady() {
  // A member of a non-trivial SCC cannot close itself — the ring does — and
  // the leader pauses the ring when rounds stop changing. Whenever an event
  // the counters cannot see makes this node externally ready (an external
  // source's closed flag, a deleteLink dropping the last open external
  // part), poke the leader so detection resumes.
  if (scc_.size() <= 1 || state_ == State::kIdle || !ExternallyReady()) return;
  if (IsRingLeader()) {
    ResumeRingIfPaused();
  } else {
    peer_->Send(*scc_.begin(), net::MessageType::kReopen,
                wire::Empty{}.Encode());
  }
}

bool UpdateEngine::JoinAndApply(RuleRuntime* rr, uint32_t delta_part,
                                const rel::RowList& rows, size_t from) {
  // Monotone union: a multi-part rule keeps every part's answers for the
  // other parts' joins, and only the rows its part log did not hold feed the
  // semi-naive join. A single-part rule feeds every row to its head.
  rel::TupleLog* log = rr->part_answers.empty()
                           ? nullptr
                           : rr->part_answers[delta_part].get();
  const size_t first_new = log == nullptr ? 0 : log->size();
  if (log != nullptr) {
    for (size_t i = from; i < rows.size(); ++i) log->Append(rows[i]);
    if (log->size() == first_new) return false;
  }
  ++stats_.joins_evaluated;
  if (rr->join_plans.empty()) return false;  // Warned about when built.
  // Chase apply time = semi-naive join + head application (WAL time is
  // charged separately inside OnDeltaApplied). One clock pair per join is
  // noise next to the join itself, so this is not gated.
  const uint64_t chase_start = peer_->runtime()->NowMicros();

  // Where this application's appends begin: the WAL logs what the database
  // holds past this row as one delta.
  const rel::Version before = peer_->db().version();
  // Semi-naive join: the delta part seeds from its new entries (or rows),
  // every other part contributes its full log. The join reads only the part
  // logs, so each binding goes straight to the head.
  const rel::QueryPlan& plan = rr->join_plans[delta_part];
  rel::ChaseStats chase_stats;
  Status st;
  std::vector<rel::Value> binding;
  auto apply = [&](const std::vector<rel::Value>& b) {
    st = rr->head.Apply(&peer_->db(), b, &peer_->nulls(), options_.chase,
                        &chase_stats);
    return st.ok();
  };
  if (log != nullptr) {
    plan.RunSeeded(*rr, first_new, &binding, apply);
  } else {
    plan.RunSeeded(*rr, rows, from, &binding, apply);
  }
  {
    uint64_t micros = peer_->runtime()->NowMicros() - chase_start;
    static obs::Histogram* chase =
        obs::Registry::Global().GetHistogram("update.chase_apply_micros");
    chase->Record(micros);
    peer_->RecordChaseMicros(micros);
  }
  // Even a failed application may have inserted tuples for earlier bindings;
  // they are in the database, so they are a change that must reach the WAL
  // and subscribers.
  if (chase_stats.inserted > 0) peer_->OnDeltaApplied(before);
  if (!st.ok()) {
    P2PDB_LOG(kError) << "chase failed for rule " << rr->rule.id << ": "
                      << st.ToString();
  }
  stats_.tuples_inserted += chase_stats.inserted;
  stats_.applications_skipped += chase_stats.skipped;
  stats_.applications_truncated += chase_stats.truncated;
  return chase_stats.inserted > 0;
}

void UpdateEngine::NotifySubscribers() {
  const bool closed = state_ == State::kClosed;
  const rel::Database& db = peer_->db();
  const rel::Version now = db.version();
  std::vector<rel::Value> binding;
  std::vector<rel::Value> row;
  for (Subscription& sub : subscriptions_) {
    // Semi-naive: new answers of the subscription query are exactly those
    // using at least one entry past the subscription's row in at least one
    // atom (every atom seeds from the row before it moves), found in the
    // order evaluation finds them. A subscription that keeps last_sent
    // appends them there, which drops the ones it shipped before; any other
    // derives each answer once and ships it as found.
    const rel::TupleLog* sent = sub.last_sent.get();
    const size_t first_new = sent == nullptr ? 0 : sent->size();
    wire::QueryAnswer ans;
    for (const rel::QueryPlan& plan : sub.plans) {
      const rel::RelationId seed = plan.seed_relation();
      if (seed == rel::kNoRelation || sub.evaluated[seed] >= now[seed]) {
        continue;
      }
      plan.RunSeeded(db, sub.evaluated[seed], &binding,
                     [&](const std::vector<rel::Value>& b) {
                       sub.Keep(plan.Project(b, &row), &ans.tuples);
                       return true;
                     });
    }
    sub.evaluated = now;
    const bool fresh = sent == nullptr ? ans.tuples.size() > 0
                                       : sent->size() > first_new;
    if (!fresh && closed == sub.announced_closed) continue;
    ans.rule_id = sub.rule_id;
    ans.part = sub.part;
    ans.is_delta = options_.delta_answers;
    ans.source_closed = closed;
    // Full mode retransmits the whole accumulated result (the paper's
    // baseline behaviour); delta mode ships only the new tuples.
    SendAnswer(&sub, ans, options_.delta_answers ? first_new : 0);
  }
}

bool UpdateEngine::ExternallyReady() const {
  for (const auto& [id, rr] : rule_runtimes_) {
    for (size_t p = 0; p < rr.rule.body.size(); ++p) {
      NodeId source = rr.rule.body[p].node;
      if (scc_.size() > 1 && scc_.count(source)) continue;  // Intra-SCC part.
      if (!rr.part_closed[p]) return false;
    }
  }
  return true;
}

void UpdateEngine::MaybeCloseTrivial() {
  if (partial_mode_ || state_ != State::kOpen) return;
  if (scc_.size() > 1) return;  // The token ring closes non-trivial SCCs.
  if (!ExternallyReady()) return;
  CloseSelf(/*notify_in_scc=*/true);
}

void UpdateEngine::CloseSelf(bool notify_in_scc) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  if (!notify_in_scc) {
    // Ring closure: in-SCC subscribers close via the same SccClosed wave;
    // only external subscribers need the final flagged answer.
    for (Subscription& sub : subscriptions_) {
      if (scc_.count(sub.subscriber)) sub.announced_closed = true;
    }
  }
  NotifySubscribers();
}

void UpdateEngine::ReopenSelf() {
  if (state_ != State::kClosed) return;
  state_ = State::kOpen;
  ++stats_.reopens;
  NotifySubscribers();  // Announces state_u = open to flagged subscribers.
  if (scc_.size() > 1) {
    if (IsRingLeader()) {
      last_round_.reset();
      if (!token_running_) LeaderStartPass();
    } else {
      peer_->Send(*scc_.begin(), net::MessageType::kReopen,
                  wire::Empty{}.Encode());
    }
  }
}

// --- SCC token ring ---------------------------------------------------------

bool UpdateEngine::IsRingLeader() const {
  return !scc_.empty() && *scc_.begin() == peer_->id();
}

NodeId UpdateEngine::RingSuccessor(NodeId member) const {
  auto it = scc_.upper_bound(member);
  return it == scc_.end() ? *scc_.begin() : *it;
}

void UpdateEngine::LeaderStartPass() {
  if (scc_.size() <= 1) return;
  token_running_ = true;
  wire::Token tok;
  tok.leader = peer_->id();
  tok.sum_sent = intra_sent_;
  tok.sum_recv = intra_recv_;
  tok.all_ready = state_ != State::kIdle && ExternallyReady();
  ++stats_.token_passes;
  // Token-ring traffic is urgent (net::IsUrgent): a token parked behind a
  // data batch would delay termination detection for the whole SCC.
  peer_->Send(RingSuccessor(peer_->id()), net::MessageType::kToken,
              tok.Encode());
}

void UpdateEngine::OnToken(NodeId from, const wire::Token& msg) {
  (void)from;
  if (msg.leader == peer_->id()) {
    LeaderEvaluate(msg);
    return;
  }
  // A node whose SCC view is out of step with the ring (e.g. freshly
  // restarted, topology not yet re-discovered) cannot route the token; its
  // "successor" may be unknown or itself. Drop it instead of looping — the
  // ring stalls until rediscovery or a new session restores routing.
  if (scc_.size() <= 1) return;
  NodeId next = RingSuccessor(peer_->id());
  if (next == peer_->id()) return;
  wire::Token tok = msg;
  tok.sum_sent += intra_sent_;
  tok.sum_recv += intra_recv_;
  tok.all_ready = tok.all_ready && state_ != State::kIdle && ExternallyReady();
  peer_->Send(next, net::MessageType::kToken, tok.Encode());
}

void UpdateEngine::LeaderEvaluate(const wire::Token& token) {
  // Mattern four-counter check: two consecutive passes observed identical
  // monotone counters with sent == recv, and every member externally ready.
  bool repeated = last_round_.has_value() &&
                  last_round_->sum_sent == token.sum_sent &&
                  last_round_->sum_recv == token.sum_recv &&
                  last_round_->all_ready == token.all_ready;
  if (repeated && token.all_ready && token.sum_sent == token.sum_recv) {
    for (NodeId m : scc_) {
      if (m != peer_->id()) {
        peer_->Send(m, net::MessageType::kSccClosed, wire::Empty{}.Encode());
      }
    }
    CloseSelf(/*notify_in_scc=*/false);
    last_round_.reset();
    token_running_ = false;
    return;
  }
  last_round_ = token;
  if (repeated) {
    // Two identical non-quiescent rounds: the ring alone cannot make
    // progress. Either receives were lost to a peer crash (sent != recv — a
    // counted message never outlives a full ring pass), or a member is not
    // externally ready and only non-ring traffic can change that (e.g. a
    // freshly restarted member still idle, whose balanced counters died with
    // it). Pause instead of passing tokens forever; fresh intra-SCC activity
    // at the leader, a member's readiness poke (Reopen), or a new session's
    // clean counters resume detection.
    token_running_ = false;
    return;
  }
  LeaderStartPass();
}

void UpdateEngine::OnSccClosed() { CloseSelf(/*notify_in_scc=*/false); }

void UpdateEngine::OnReopen() {
  if (!IsRingLeader()) return;
  last_round_.reset();
  if (!token_running_) LeaderStartPass();
}

void UpdateEngine::CountIntraSccSend(NodeId to) {
  if (scc_.size() > 1 && scc_.count(to)) {
    ++intra_sent_;
    ResumeRingIfPaused();
  }
}

void UpdateEngine::CountIntraSccRecv(NodeId from) {
  if (scc_.size() > 1 && scc_.count(from)) {
    ++intra_recv_;
    ResumeRingIfPaused();
  }
}

void UpdateEngine::ResumeRingIfPaused() {
  if (token_running_ || !IsRingLeader() || state_ == State::kIdle) return;
  last_round_.reset();
  LeaderStartPass();
}

// --- Query-dependent update --------------------------------------------------

void UpdateEngine::StartPartial(uint64_t session,
                                const std::set<std::string>& relations) {
  session_ = session;
  partial_mode_ = true;
  state_ = State::kOpen;
  ForwardPartial(relations, {});
}

void UpdateEngine::OnPartialUpdate(NodeId from,
                                   const wire::PartialUpdate& msg) {
  (void)from;
  // A4's loop guard: a node already on the query path does not recurse.
  if (Contains(msg.sn_path, peer_->id())) return;
  if (state_ == State::kIdle) session_ = msg.session;
  ForwardPartial(msg.relations, msg.sn_path);
}

void UpdateEngine::ForwardPartial(const std::set<std::string>& relations,
                                  std::vector<NodeId> sn_path) {
  sn_path.push_back(peer_->id());
  for (const CoordinationRule& r : peer_->rules()) {
    bool relevant = false;
    for (const rel::Atom& a : r.head_atoms) {
      if (relations.count(a.relation)) relevant = true;
    }
    if (!relevant) continue;
    if (!partial_rules_forwarded_.insert(r.id).second) continue;
    RuleRuntime* rr = EnsureRuleRuntime(r);
    SubscribeParts(*rr);
    for (size_t p = 0; p < r.body.size(); ++p) {
      NodeId target = r.body[p].node;
      if (Contains(sn_path, target)) continue;  // ID ∈ SN: stop propagation.
      wire::PartialUpdate fwd;
      fwd.session = session_;
      for (const rel::Atom& a : r.body[p].atoms) {
        fwd.relations.insert(a.relation);
      }
      fwd.sn_path = sn_path;
      peer_->Send(target, net::MessageType::kPartialUpdate, fwd.Encode());
    }
  }
}

// --- Dynamics (Section 4) ----------------------------------------------------

void UpdateEngine::OnAddRule(NodeId from, const wire::AddRuleChange& msg) {
  (void)from;
  if (msg.rule.head_node != peer_->id()) {
    P2PDB_LOG(kWarn) << "addRule notification for foreign head, node "
                     << peer_->id();
    return;
  }
  for (const CoordinationRule& r : peer_->rules()) {
    if (r.id == msg.rule.id) return;  // Duplicate notification.
  }
  peer_->mutable_rules()->push_back(msg.rule);
  peer_->LogRuleChange(wire::RuleChangeRecord::Add(msg.rule));
  if (state_ == State::kIdle) return;  // Will subscribe when a session starts.
  RuleRuntime* rr = EnsureRuleRuntime(msg.rule);
  if (state_ == State::kClosed) ReopenSelf();
  // Extend the session to the new sources (they may not have been reachable
  // at flood time), then subscribe.
  if (!partial_mode_) {
    wire::UpdateStart start{session_};
    for (const CoordinationRule::BodyPart& p : msg.rule.body) {
      peer_->Send(p.node, net::MessageType::kUpdateStart, start.Encode());
    }
  }
  SubscribeParts(*rr);
}

void UpdateEngine::OnDeleteRule(NodeId from,
                                const wire::DeleteRuleChange& msg) {
  (void)from;
  auto it = rule_runtimes_.find(msg.rule_id);
  // Remove from the peer's rule list regardless of session state.
  auto* rules = peer_->mutable_rules();
  for (auto rit = rules->begin(); rit != rules->end(); ++rit) {
    if (rit->id == msg.rule_id) {
      rules->erase(rit);
      peer_->LogRuleChange(wire::RuleChangeRecord::Delete(msg.rule_id));
      break;
    }
  }
  if (it == rule_runtimes_.end()) return;
  wire::Unsubscribe unsub;
  unsub.rule_id = msg.rule_id;
  for (size_t p = 0; p < it->second.rule.body.size(); ++p) {
    unsub.part = static_cast<uint32_t>(p);
    NodeId target = it->second.rule.body[p].node;
    CountIntraSccSend(target);
    peer_->Send(target, net::MessageType::kUnsubscribe, unsub.Encode());
  }
  rule_runtimes_.erase(it);
  // Dropping a rule can unblock closure (fewer parts to wait for) — in a
  // non-trivial SCC that means waking a ring paused on this node's account.
  PokeRingIfReady();
  MaybeCloseTrivial();
}

void UpdateEngine::OnUnsubscribe(NodeId from, const wire::Unsubscribe& msg) {
  CountIntraSccRecv(from);
  for (auto it = subscriptions_.begin(); it != subscriptions_.end(); ++it) {
    if (it->subscriber == from && it->rule_id == msg.rule_id &&
        it->part == msg.part) {
      subscriptions_.erase(it);
      return;
    }
  }
}

}  // namespace p2pdb::core
