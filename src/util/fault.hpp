// Seeded fault injection for reconfigurable-FSM tables.
//
// Models the two field failures a live reconfiguration is exposed to:
//  * SEU bit flips in the F/G block RAM (transient, or stuck-at when the
//    damaged cell re-corrupts after every write), and
//  * power loss cutting a reconfiguration program short at a chosen step.
//
// FaultInjector is pure decision logic over an abstract table geometry
// (flat cell indices, a per-cell bit width, a program length); the core and
// rtl layers map the drawn events onto their own RAM models through their
// back doors.  Everything is derived from an Rng, so a (seed, model,
// geometry) triple reproduces a scenario exactly — the contract the fault
// sweep bench and the CI seed matrix rely on.
//
// This layer disturbs the *tables the planner reasons about*; `rfsmc
// inject` draws its scenario from a FaultModel built from `--flips` and
// `--abort-step`, and A12 (bench_fault_sweep) sweeps its own table of rates.
// The one named family here is ServiceScenario below: `rfsmd --fault NAME`
// makes the planner service fail its own worker.  Its sibling,
// util/chaos.hpp, disturbs the *infrastructure underneath the service*
// (disk syscalls in util/fsio, wire frames in util/ipc) from one
// `--chaos <seed>:<profile>` spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rfsm::fault {

/// One bit flip in one table cell.  `atStep` is the program step index the
/// flip lands *before* (0-based); a value equal to the program length means
/// the flip arrives after the program completed.  A sticky flip models a
/// stuck-at cell: it re-corrupts the cell after every subsequent write.
struct CellFault {
  std::size_t cell = 0;  // flat cell index, < cellCount
  int bit = 0;           // bit within the cell word, < bitsPerCell
  int atStep = 0;
  bool sticky = false;

  bool operator==(const CellFault&) const = default;
};

/// A complete fault scenario for one migration attempt.
struct FaultScenario {
  /// Power loss: execution stops before this step runs (steps 0..k-1 were
  /// committed).  nullopt = the program runs to completion.
  std::optional<int> abortAtStep;
  std::vector<CellFault> flips;

  bool empty() const { return !abortAtStep.has_value() && flips.empty(); }
};

/// Injection rates.  The defaults are the "default injection rates" of
/// bench_fault_sweep: most runs see at least one disturbance, and a clean
/// recovery must be demonstrated for every one of them.
struct FaultModel {
  /// Probability that the program is cut short (power-loss model).
  double abortProbability = 0.25;
  /// Per-slot probability that one of `maxFlips` flip slots fires.
  double flipProbability = 0.5;
  int maxFlips = 2;
  /// Probability that a flip is sticky (stuck-at) *when the caller supplied
  /// sticky-eligible cells*; sticky flips are only drawn from that set.
  double stickyProbability = 0.0;
};

/// Geometry of the table under attack.
struct FaultGeometry {
  std::size_t cellCount = 0;  // |S_super| * |I_super|
  int bitsPerCell = 1;        // state-code width + output-code width
  int programLength = 0;      // |Z| of the program in flight
  /// Cells a sticky fault may target (e.g. the RAM rows of newly allocated
  /// states); empty = sticky faults disabled regardless of the model.
  std::vector<std::size_t> stickyCells;
};

/// Draws reproducible fault scenarios.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed);

  /// Draws one scenario.  Deterministic: the k-th draw from a given seed
  /// yields the same scenario for the same (model, geometry).  Flips are
  /// scheduled in [0, min(abortAtStep, programLength)] so nothing "happens"
  /// after the power is gone.
  FaultScenario draw(const FaultModel& model, const FaultGeometry& geometry);

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

// --- Named service scenarios ----------------------------------------------
//
// Every scenario the CI smoke jobs and the service benches rely on is
// addressable by name, so a failure seen in CI reproduces with the same
// `rfsmd --fault NAME` flag instead of a race.

/// Process-level fault scenarios of the planner service (what the
/// supervisor or worker does to itself), by name.
/// All scenarios are armed on the supervisor's dispatch hook and fire
/// exactly once, on dispatch 0, so the retried shard lands on an
/// unmolested worker:
///   none             no induced failure
///   kill-first-shard SIGKILL the worker right after the first shard is
///                    dispatched to it
///   abort-mid-shard  SIGABRT the worker mid-shard (an assert/abort death,
///                    distinct from SIGKILL in the exit status)
///   hang-worker      SIGSTOP the worker so it goes silent mid-shard and
///                    must be timed out and destroyed, never joined
///   pool-unhealthy   the pool is forced unhealthy and refuses work
struct ServiceScenario {
  enum class Kind {
    kNone,
    kKillWorker,   ///< SIGKILL after dispatch 0
    kAbortWorker,  ///< SIGABRT after dispatch 0
    kHangWorker,   ///< SIGSTOP after dispatch 0
    kUnhealthy,    ///< pool forced unhealthy
  };
  std::string name = "none";
  Kind kind = Kind::kNone;
};

std::optional<ServiceScenario> serviceScenarioByName(const std::string& name);
const std::vector<std::string>& serviceScenarioNames();

}  // namespace rfsm::fault
