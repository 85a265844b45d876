// Partial reconfiguration: output-only and transition-only migrations.
//
// Def. 4.1 poses the problem "including also the case of partial
// reconfiguration": often only the output function G changes (a recoloring
// of the same control skeleton) or only the transition function F.  These
// special cases have more structure than the general problem:
//
//  * Output-only (F' = F on a common domain): every rewrite keeps the
//    machine's graph intact, so no temporary transition is *needed* and,
//    without one, ordering the deltas is a shortest-walk problem on a
//    *fixed* graph, which Held-Karp solves over the static distance matrix
//    for small |Td|.  That order is optimal only within its family:
//    programs that open with a reset and use no temporary transition.  A
//    temporary transition can still jump where a walk is long (planJsr and
//    planGreedy beat it on some instances), and planOptimalSearch, which
//    starts in S0 without the reset, is shorter on every instance of the
//    output-only property sweep.
//  * Transition-only (G' = G wherever both are defined): no special
//    structure is gained (the graph still mutates); provided for symmetry
//    and classification.
#pragma once

#include <optional>

#include "core/migration.hpp"
#include "core/program.hpp"

namespace rfsm {

/// Classification of a migration's delta transitions.
struct DeltaClassification {
  int outputOnly = 0;      // same F value, different G, common domain
  int transitionOnly = 0;  // different F value, same G, common domain
  int both = 0;            // both functions differ, common domain
  int structural = 0;      // involves symbols outside the source alphabets

  int total() const {
    return outputOnly + transitionOnly + both + structural;
  }
};

/// Classifies every delta transition of the migration.
DeltaClassification classifyDeltas(const MigrationContext& context);

/// True when the migration only changes the output function: alphabets and
/// state sets coincide and every delta is output-only.  Such migrations
/// never need temporary transitions, though one may shorten the program.
bool isOutputOnlyMigration(const MigrationContext& context);

/// Shortest program for an output-only migration among those that open
/// with a reset and use no temporary transition: Held-Karp on the static
/// distance matrix orders the deltas, connecting each by the cheaper of a
/// walk or reset-plus-walk.  Every other step is a Traverse along M's graph
/// or an in-place Rewrite that preserves F.
/// Requires isOutputOnlyMigration(); throws MigrationError otherwise.
/// Returns nullopt when |Td| > maxDeltas (Held-Karp is O(2^n n^2)).
std::optional<ReconfigurationProgram> planOutputOnlyOptimal(
    const MigrationContext& context, int maxDeltas = 14);

}  // namespace rfsm
