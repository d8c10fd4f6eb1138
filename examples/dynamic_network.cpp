// Dynamic network walk-through (Section 4): links are added and removed while
// the update runs; closed nodes re-open and re-close; the final state is
// verified against the Definition 9 sound/complete envelope, and a separated
// sub-network (Theorem 3) closes even while churn continues elsewhere.
//
//   ./dynamic_network
#include <cstdio>

#include "src/core/dynamics.h"
#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"

using namespace p2pdb;  // NOLINT

int main() {
  const char* network = R"(
# Newsroom <- Wire <- Correspondent  plus a Blogger that joins mid-run,
# and an unrelated pair Mirror <- Archive that churns.
node Newsroom { rel story(slug); }
node Wire { rel item(slug); }
node Correspondent { rel report(slug); fact report("election"); fact report("flood"); }
node Blogger { rel post(slug); fact post("scoop"); }
node Mirror { rel copy(slug); }
node Archive { rel doc(slug); fact doc("1997"); }
rule pickup:  Wire.item(S) => Newsroom.story(S);
rule file:    Correspondent.report(S) => Wire.item(S);
rule mirror:  Archive.doc(S) => Mirror.copy(S);
)";
  auto system = lang::ParseSystem(network);
  if (!system.ok()) {
    std::fprintf(stderr, "%s\n", system.status().ToString().c_str());
    return 1;
  }
  NodeId newsroom = *system->NodeByName("Newsroom");
  NodeId wire = *system->NodeByName("Wire");
  NodeId blogger = *system->NodeByName("Blogger");
  NodeId mirror = *system->NodeByName("Mirror");
  NodeId archive = *system->NodeByName("Archive");

  // addLink: mid-run, the Wire starts pulling the Blogger's posts.
  core::CoordinationRule blog_rule;
  blog_rule.id = "blog";
  blog_rule.head_node = wire;
  rel::Atom head;
  head.relation = "item";
  head.terms = {rel::Term::Var("S")};
  blog_rule.head_atoms = {head};
  core::CoordinationRule::BodyPart part;
  part.node = blogger;
  rel::Atom body;
  body.relation = "post";
  body.terms = {rel::Term::Var("S")};
  part.atoms = {body};
  blog_rule.body = {part};

  core::ChangeScript changes = {
      // Arrives after the news chain has closed: forces a re-open wave.
      core::AtomicChange::Add(12'000, blog_rule),
      // Churn on the unrelated pair: drop and restore the mirror rule.
      core::AtomicChange::Delete(1000, mirror, "mirror"),
      core::AtomicChange::Add(15'000, **system->RuleById("mirror")),
  };

  // Separation check (Definition 10.2): the news chain never reaches the
  // mirror pair under any prefix of the change script.
  bool separated = core::IsSeparatedUnderChange(
      *system, changes, {newsroom, wire, blogger}, {mirror, archive});
  std::printf("news chain separated from mirror pair under change: %s\n",
              separated ? "yes" : "no");

  net::SimRuntime runtime;
  core::Session session(*system, &runtime);
  if (!session.RunDiscovery().ok()) return 1;
  for (const core::AtomicChange& c : changes) session.ScheduleChange(c);
  // Two disconnected sub-networks, so the session starts at both heads.
  if (!session.RunUpdateFrom({newsroom, mirror}).ok()) return 1;

  std::printf("\nafter the run:\n");
  auto show = [&](NodeId n, const char* relation) {
    const rel::Relation* r = &session.peer(n).db().relation(relation);
    std::printf("  %s.%s (%zu):", system->node(n).name.c_str(), relation,
                r->size());
    for (const rel::Tuple& t : r->SortedTuples()) {
      std::printf(" %s", t.ToString().c_str());
    }
    std::printf("\n");
  };
  show(newsroom, "story");
  show(wire, "item");
  show(mirror, "copy");

  std::printf(
      "\nreopen count at Wire: %llu (addLink re-opened a closed node)\n",
      static_cast<unsigned long long>(
          session.peer(wire).update().stats().reopens));

  auto envelope = core::ComputeEnvelope(*system, changes, rel::ChaseOptions{});
  if (!envelope.ok()) return 1;
  bool inside = core::WithinEnvelope(session.SnapshotDatabases(), *envelope);
  std::printf("final state within the Definition 9 envelope: %s\n",
              inside ? "yes" : "NO");
  std::printf("all nodes closed (Theorem 2, finite change): %s\n",
              session.AllClosed() ? "yes" : "no");
  return inside ? 0 : 1;
}
