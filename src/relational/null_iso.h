// Comparison of database instances up to renaming of labeled nulls.
// Two runs of the update algorithm (or the distributed run and the global
// baseline) may invent different null identifiers for the same existential
// witnesses; instances are "the same" when a bijection over nulls maps one to
// the other.
#ifndef P2PDB_RELATIONAL_NULL_ISO_H_
#define P2PDB_RELATIONAL_NULL_ISO_H_

#include "src/relational/database.h"

namespace p2pdb::rel {

/// True if some bijection over labeled nulls maps `a` onto `b` exactly
/// (same relations, same tuple sets after renaming). Exponential in the worst
/// case; intended for test-sized instances.
bool DatabasesIsomorphic(const Database& a, const Database& b);

/// Weaker, cheap check used by large property tests: both databases have the
/// same relations, and in each the null-free (certain) tuples agree exactly.
/// Null-carrying tuples are not compared, not even by count: under
/// kHomomorphismCheck how many a run keeps depends on arrival order.
bool DatabasesCertainEqual(const Database& a, const Database& b);

/// True if every tuple of `sub` appears in `sup` after some (not necessarily
/// injective) mapping of sub's nulls to sup's values — i.e. `sub`
/// homomorphically maps into `sup`. Used for sound/complete envelope checks
/// (Definition 9).
bool DatabaseHomomorphicallyContained(const Database& sub, const Database& sup);

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_NULL_ISO_H_
