// Exact reconfiguration planning by state-space search.
//
// The permutation planners (Sec. 4.6 and planners.hpp) fix a *decoder* and
// search only over delta orderings.  This module searches the actual
// reachable configuration space: a search node is
//     (set of delta cells already fixed, current state, temp-cell content)
// and the moves are exactly the one-cycle operations the hardware offers —
// reset, traversing an existing transition, rewriting the delta cell at the
// current state, or rewriting the designated temporary cell (i0, S0') to
// jump anywhere useful.  Uniform move cost makes breadth-first search
// return a provably shortest program *within this move family*, which
// strictly contains everything the paper's decoder can express (it can
// interleave walks and jumps mid-program).
//
// The search also starts in S0 with no leading reset, whereas every
// order-decoding planner opens with one (JSR's step 3 resets "no matter
// where M currently is", and Thm. 4.2's 3(|Td|+1) counts it).  When
// S0 = S0' that reset is a no-op, so one cycle of the gap to any decoder is
// the reset alone: on A2's instances the gap to the exact order optimum is
// 1.25 / 1.75 / 1.50 cycles at |Td| 3 / 5 / 7, and 0.25 / 0.75 / 0.50
// without it.
//
// Cost: O(2^|Td| * |S_super| * (|Td| + 3)) nodes; practical to |Td| ~ 16.
#pragma once

#include <optional>

#include "core/migration.hpp"
#include "core/program.hpp"

namespace rfsm {

/// Options for the search.
struct OptimalSearchOptions {
  /// Temporary-cell input i0 (kNoSymbol = first input of M').
  SymbolId tempInput = kNoSymbol;
  /// Refuse instances with more deltas than this (node count doubles per
  /// delta).
  int maxDeltas = 14;
  /// Hard cap on the search-space size (~12 bytes/node are allocated).
  std::size_t maxNodes = 4u << 20;
};

/// Shortest reconfiguration program within the one-cycle move family, or
/// nullopt when the instance exceeds the limits.  The result validates and
/// is never longer than any planner in planners.hpp (a property test
/// enforces both).
std::optional<ReconfigurationProgram> planOptimalSearch(
    const MigrationContext& context, const OptimalSearchOptions& options = {});

}  // namespace rfsm
