#include "src/core/global_fixpoint.h"

#include "src/relational/eval.h"

namespace p2pdb::core {

namespace {
// The centralized chase mints nulls under a reserved pseudo-node id so they
// cannot collide with nulls minted by real peers in comparisons.
constexpr uint32_t kGlobalChaseNode = 0xfffffffeu;
}  // namespace

Result<GlobalFixpointResult> ComputeGlobalFixpoint(
    const P2PSystem& system, const rel::ChaseOptions& chase_options) {
  auto combined = system.CombinedDatabase();
  if (!combined.ok()) return combined.status();
  rel::Database db = combined.MoveValue();
  rel::NullFactory nulls(kGlobalChaseNode);

  GlobalFixpointResult result;
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    for (const CoordinationRule& rule : system.rules()) {
      rel::ChaseStats step;
      if (rule.domain_map.empty()) {
        // Node signatures are disjoint, so the full body evaluates directly
        // against the union database.
        rel::ConjunctiveQuery body;
        for (const CoordinationRule::BodyPart& p : rule.body) {
          body.atoms.insert(body.atoms.end(), p.atoms.begin(), p.atoms.end());
          body.builtins.insert(body.builtins.end(), p.builtins.begin(),
                               p.builtins.end());
        }
        body.builtins.insert(body.builtins.end(), rule.cross_builtins.begin(),
                             rule.cross_builtins.end());
        P2PDB_RETURN_IF_ERROR(rel::ApplyRule(&db, db, body, rule.head_atoms,
                                             &nulls, chase_options, &step));
      } else {
        // Domain relation: evaluate each part, translate its exported values,
        // then join — mirroring what the distributed head node does.
        rel::Database scratch;
        rel::ConjunctiveQuery join;
        for (size_t p = 0; p < rule.body.size(); ++p) {
          std::vector<std::string> vars = rule.PartExportVars(p);
          std::string name = "$" + rule.id + ":" + std::to_string(p);
          P2PDB_ASSIGN_OR_RETURN(
              auto scratch_rel,
              scratch.CreateRelation(rel::RelationSchema(name, vars)));
          auto part_result = rel::EvaluateQuery(db, rule.PartQuery(p));
          if (!part_result.ok()) return part_result.status();
          for (const rel::Tuple& t :
               rule.domain_map.ApplyToSet(*part_result)) {
            (void)scratch_rel->Insert(t);
          }
          rel::Atom atom;
          atom.relation = name;
          for (const std::string& v : vars) {
            atom.terms.push_back(rel::Term::Var(v));
          }
          join.atoms.push_back(std::move(atom));
        }
        join.builtins = rule.cross_builtins;
        P2PDB_RETURN_IF_ERROR(rel::ApplyRule(&db, scratch, join,
                                             rule.head_atoms, &nulls,
                                             chase_options, &step));
      }
      result.chase.inserted += step.inserted;
      result.chase.skipped += step.skipped;
      result.chase.truncated += step.truncated;
      if (step.inserted > 0) changed = true;
    }
  }

  // Split the union instance back into per-node databases by relation
  // ownership.
  result.node_dbs.resize(system.node_count());
  for (const NodeInfo& info : system.nodes()) {
    rel::Database& out = result.node_dbs[info.id];
    for (const rel::Relation& relation : info.db.relations()) {
      P2PDB_ASSIGN_OR_RETURN(auto dst,
                             out.CreateRelation(relation.schema()));
      // The union holds every node's relations, each in log order.
      const rel::LogView final_log = db.relation(relation.name()).View();
      for (size_t i = 0; i < final_log.size(); ++i) {
        P2PDB_RETURN_IF_ERROR(dst->Insert(final_log.at(i)).status());
      }
    }
  }
  return result;
}

}  // namespace p2pdb::core
