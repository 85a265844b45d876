// Reconfiguration-program planners (paper Secs. 4.4 and 4.6).
//
// The ordering of delta transitions is a TSP-like problem (Sec. 4.6); every
// planner here produces a valid program, they differ in how they order the
// deltas and how they connect consecutive deltas:
//
//  * planJsr (core/jsr.hpp)      — the paper's constructive heuristic.
//  * decodeOrder                 — the paper's EA decoder: given an order,
//    connect consecutive deltas by an existing path of length <= 1, else by
//    reset + temporary transition (DecodeRule::kPaper); kBestOfThree is an
//    improved decoder for the ablation study that also considers longer
//    walks and reset-then-walk connections.
//  * planGreedy                  — nearest-neighbour order, paper decoder.
//  * planEvolutionary            — the paper's EA over delta permutations.
//  * planExact                   — exhaustive search over orders (small
//    |Td| only); optimal within the decoder family.
//  * planNoTemporary             — ablation: path-following only, temporary
//    transitions used solely when a delta source is otherwise unreachable.
//
// All but planJsr walk the connection rule on one ConnectionKernel
// (core/connection.hpp): the searches score orders by its cost walk and
// decode only the winner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/connection.hpp"
#include "core/migration.hpp"
#include "core/program.hpp"
#include "ea/evolution.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rfsm {

/// Decodes a permutation of the (loop-)delta transitions into a program.
/// `order` must be a permutation of 0..n-1 where n is the number of delta
/// transitions excluding the one living in the temporary cell (i0, S0') —
/// see loopDeltaCount().  Counts one planner.decode_call and records the
/// planner.decode histogram and span.
ReconfigurationProgram decodeOrder(const MigrationContext& context,
                                   const std::vector<int>& order,
                                   const DecodeOptions& options = {});

/// Number of deltas a decode order ranges over (deltas not in the temporary
/// cell (i0, S0')).
int loopDeltaCount(const MigrationContext& context,
                   SymbolId tempInput = kNoSymbol);

/// Nearest-neighbour ordering under the decoder's connection cost.
ReconfigurationProgram planGreedy(const MigrationContext& context,
                                  const DecodeOptions& options = {});

/// Result of the EA planner, with search statistics for the ablation bench.
struct EvolutionaryPlan {
  ReconfigurationProgram program;
  double initialBest = 0.0;   // best fitness in the random initial population
  int evaluations = 0;
  std::vector<double> bestPerGeneration;
};

/// The paper's evolutionary heuristic (Sec. 4.6).  The fitness is the
/// ConnectionKernel's cost walk under options.rule, and only the winning
/// order is decoded, so planner.decode_calls rises by one per fitness
/// evaluation plus one for the winner.  A non-null `pool` parallelizes the
/// fitness evaluations; the result is bit-identical for every job count
/// (see evolvePermutation).
EvolutionaryPlan planEvolutionary(const MigrationContext& context,
                                  const EvolutionConfig& config, Rng& rng,
                                  const DecodeOptions& options = {},
                                  ThreadPool* pool = nullptr);

/// Exhaustive search over all delta orders; returns the shortest program
/// (the lexicographically first order of that length).  Refuses (returns
/// nullopt) when loopDeltaCount > maxDeltas.
std::optional<ReconfigurationProgram> planExact(
    const MigrationContext& context, int maxDeltas = 9,
    const DecodeOptions& options = {});

/// Ablation: planGreedy under DecodeRule::kNoTemporary — connect deltas by
/// shortest existing walks; temporary transitions only as a last resort for
/// unreachable sources.
ReconfigurationProgram planNoTemporary(const MigrationContext& context,
                                       SymbolId tempInput = kNoSymbol);

// --- Batch planning front end -------------------------------------------
//
// planAll runs one planner over many independent migration instances,
// `jobs`-way parallel.  Instance k draws from the independent rng stream
// (seed, k), so the output is bit-identical for every job count — the
// contract every bench and the CLI rely on.

/// Plans one instance; must be deterministic given (context, rng) and
/// thread-safe (planners that share nothing but the const context are).
using BatchPlanFn =
    std::function<ReconfigurationProgram(const MigrationContext&, Rng&)>;

/// Options of a batch planning call.
struct BatchOptions {
  /// Total parallelism (including the calling thread); <= 0 selects one
  /// job per hardware thread.
  int jobs = 1;
  /// Base seed; instance k plans with Rng(seed).substream(substreamBase+k).
  std::uint64_t seed = 1;
  /// Offset into the substream space: a *shard* of a larger batch sets the
  /// shard's global start index here, so a shard re-planned after a worker
  /// crash (on any host, with any job count) draws the exact streams the
  /// unsharded batch would have — the bit-identical-recovery contract of
  /// the planner service.
  std::uint64_t substreamBase = 0;
  /// Cooperative cancellation, polled before each instance (and threaded
  /// into the per-instance planners).  Instances not yet started when the
  /// token expires are reported as cancelled failures.
  const CancelToken* cancel = nullptr;
};

/// Per-instance failure of a batch run (satellite of the poisoned-slot
/// contract: one bad instance must not take down the batch).
struct InstanceFailure {
  std::size_t instance = 0;
  std::string error;
  bool cancelled = false;  ///< deadline/cancel, not a planner defect

  bool operator==(const InstanceFailure&) const = default;
};

/// Result of a failure-tolerant batch run.  `programs` is indexed by
/// instance; a slot named in `failures` is poisoned (empty program) and
/// must not be consumed.
struct BatchReport {
  std::vector<ReconfigurationProgram> programs;
  std::vector<InstanceFailure> failures;  // sorted by instance

  bool ok() const { return failures.empty(); }
};

/// Thrown by planAll when instances failed; lists the failed instances.
class BatchError : public Error {
 public:
  BatchError(const std::string& what, std::vector<InstanceFailure> failures)
      : Error(what), failures_(std::move(failures)) {}
  const std::vector<InstanceFailure>& failures() const { return failures_; }

 private:
  std::vector<InstanceFailure> failures_;
};

/// Plans every instance with `plan`, isolating failures: an instance whose
/// planner throws poisons only its own result slot (recorded in
/// failures + the batch.instance_failures metric); every other instance
/// still runs.  Results arrive in instance order.
BatchReport planAllChecked(const std::vector<MigrationContext>& instances,
                           const BatchPlanFn& plan,
                           const BatchOptions& options = {});

/// Plans every instance with `plan`.  Results arrive in instance order.
/// Failures are isolated per instance (see planAllChecked); when any
/// occurred, the whole batch still drains and a BatchError naming the
/// failed instances is thrown afterwards.
std::vector<ReconfigurationProgram> planAll(
    const std::vector<MigrationContext>& instances, const BatchPlanFn& plan,
    const BatchOptions& options = {});

/// EA over every instance, with full per-instance search statistics (the
/// Table 2 / ablation benches need more than the programs).  Same
/// determinism contract as planAll.
std::vector<EvolutionaryPlan> planEvolutionaryBatch(
    const std::vector<MigrationContext>& instances,
    const EvolutionConfig& config, const BatchOptions& options = {},
    const DecodeOptions& decode = {});

}  // namespace rfsm
