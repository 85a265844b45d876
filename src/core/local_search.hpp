// Local-search planners complementing the Sec. 4.6 evolutionary algorithm.
//
// The delta-ordering problem is TSP-like (the paper's own observation), so
// classic TSP local search applies: 2-opt slice reversal on the order, and
// simulated annealing over swap moves.  Both score orders with the same
// connection rule as the EA (ConnectionKernel's cost walk, equal to
// decodeOrder(...).length()) and decode only the winning order, so results
// are directly comparable.
#pragma once

#include "core/migration.hpp"
#include "core/planners.hpp"
#include "core/program.hpp"
#include "util/rng.hpp"

namespace rfsm {

/// Result of a local-search run.
struct LocalSearchPlan {
  ReconfigurationProgram program;
  int evaluations = 0;   // orders scored (annealing: plus the final decode)
  int improvements = 0;  // accepted improving moves
};

/// First-improvement 2-opt on the delta order, started from `seed` (or the
/// identity order when empty).  Terminates at a local optimum or after
/// `maxEvaluations` scored orders.
LocalSearchPlan planTwoOpt(const MigrationContext& context,
                           const std::vector<int>& seed = {},
                           const DecodeOptions& options = {},
                           int maxEvaluations = 20000);

/// Simulated-annealing parameters.
struct AnnealingConfig {
  double initialTemperature = 4.0;
  double coolingRate = 0.995;  // multiplicative per move
  int moves = 4000;
};

/// Simulated annealing over swap moves on the delta order.
LocalSearchPlan planAnnealing(const MigrationContext& context,
                              const AnnealingConfig& config, Rng& rng,
                              const DecodeOptions& options = {});

}  // namespace rfsm
