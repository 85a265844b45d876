#include "core/planners.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "core/jsr.hpp"
#include "core/mutable_machine.hpp"
#include "ea/permutation.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfsm {
namespace {

constexpr int kInfinity = std::numeric_limits<int>::max() / 4;

/// Shared machinery of the order-decoding planners: tracks the machine
/// under reconfiguration, emits steps, connects to delta sources, and
/// repairs the temporary cell at the end.
class Decoder {
 public:
  Decoder(const MigrationContext& context, const DecodeOptions& options)
      : context_(context), options_(options), machine_(context) {
    machine_.setCancel(options.cancel);
    i0_ = options.tempInput == kNoSymbol ? context.liftTargetInput(0)
                                         : options.tempInput;
    RFSM_CHECK(context.inTargetInputs(i0_),
               "temporary input must be an input of M'");
    s0_ = context.targetReset();
    tempOutput_ = context.targetOutput(i0_, s0_);
    for (const Transition& td : context.deltaTransitions()) {
      if (td.input == i0_ && td.from == s0_) {
        tempCellIsDelta_ = true;
      } else {
        loopDeltas_.push_back(td);
      }
    }
    // Programs start with a reset transition: the machine may be anywhere
    // when reconfiguration begins (JSR line (3)).
    emit(ReconfigStep::reset());
  }

  const std::vector<Transition>& loopDeltas() const { return loopDeltas_; }

  /// Cycles the next connect() to `td` would cost, without mutating.
  int connectionCost(const Transition& td) const {
    const SymbolId here = machine_.state();
    if (options_.rule == DecodeRule::kPaper) {
      if (here == td.from) return 0;
      if (machine_.edgeInput(here, td.from).has_value()) return 1;
      return here == s0_ ? 1 : 2;  // [reset +] temporary
    }
    return bestOfThreeCost(td).first;
  }

  /// Connects to td.from, then rewrites td while traversing it.
  void processDelta(const Transition& td) {
    connect(td);
    RFSM_CHECK(machine_.state() == td.from,
               "decoder failed to reach the delta source");
    emit(ReconfigStep::rewrite(td.input, td.to, td.output));
  }

  /// Repairs the temporary cell and terminates in S0'.
  ReconfigurationProgram finish() {
    if (tempDirty_ || tempCellIsDelta_) {
      if (machine_.state() != s0_) emit(ReconfigStep::reset());
      emit(ReconfigStep::rewrite(i0_, context_.targetNext(i0_, s0_),
                                 context_.targetOutput(i0_, s0_)));
    }
    if (machine_.state() != s0_) emit(ReconfigStep::reset());
    return std::move(program_);
  }

 private:
  enum class Connect { kWalk, kResetWalk, kTemporary };

  void emit(const ReconfigStep& step) {
    program_.steps.push_back(step);
    machine_.applyStep(step);
  }

  /// (cost, choice) of the cheapest kBestOfThree connection to td.from.
  /// Distances come from the machine's version-tagged BFS cache, so the
  /// greedy planner's O(n^2) cost scan re-walks nothing between rewrites.
  std::pair<int, Connect> bestOfThreeCost(const Transition& td) const {
    const SymbolId here = machine_.state();
    const int dHere =
        machine_.distancesFrom(here)[static_cast<std::size_t>(td.from)];
    const int costWalk = dHere < 0 ? kInfinity : dHere;

    const int dReset =
        machine_.distancesFrom(s0_)[static_cast<std::size_t>(td.from)];
    const int costResetWalk = dReset < 0 ? kInfinity : 1 + dReset;

    int costTemporary = (here == s0_) ? 1 : 2;
    if (!options_.allowTemporary &&
        (costWalk < kInfinity || costResetWalk < kInfinity))
      costTemporary = kInfinity;

    // Prefer non-mutating connections on ties.
    if (costWalk <= costResetWalk && costWalk <= costTemporary)
      return {costWalk, Connect::kWalk};
    if (costResetWalk <= costTemporary)
      return {costResetWalk, Connect::kResetWalk};
    return {costTemporary, Connect::kTemporary};
  }

  void emitWalk(SymbolId from, SymbolId to) {
    const auto inputs = machine_.pathInputs(from, to);
    RFSM_CHECK(inputs.has_value(), "walk target became unreachable");
    for (const SymbolId input : *inputs)
      emit(ReconfigStep::traverse(input));
  }

  void emitTemporary(SymbolId target) {
    if (machine_.state() != s0_) emit(ReconfigStep::reset());
    if (machine_.state() == target) return;  // the reset already arrived
    emit(ReconfigStep::rewrite(i0_, target, tempOutput_, /*temporary=*/true));
    tempDirty_ = true;
  }

  void connect(const Transition& td) {
    const SymbolId here = machine_.state();
    if (here == td.from) return;
    if (options_.rule == DecodeRule::kPaper) {
      // Paper Sec. 4.6: existing path of length <= 1, else reset+temporary.
      if (const auto input = machine_.edgeInput(here, td.from)) {
        emit(ReconfigStep::traverse(*input));
        return;
      }
      emitTemporary(td.from);
      return;
    }
    const auto [cost, choice] = bestOfThreeCost(td);
    switch (choice) {
      case Connect::kWalk:
        emitWalk(here, td.from);
        break;
      case Connect::kResetWalk:
        emit(ReconfigStep::reset());
        emitWalk(s0_, td.from);
        break;
      case Connect::kTemporary:
        emitTemporary(td.from);
        break;
    }
  }

  const MigrationContext& context_;
  DecodeOptions options_;
  MutableMachine machine_;
  ReconfigurationProgram program_;
  std::vector<Transition> loopDeltas_;
  SymbolId i0_ = kNoSymbol;
  SymbolId s0_ = kNoSymbol;
  SymbolId tempOutput_ = kNoSymbol;
  bool tempDirty_ = false;
  bool tempCellIsDelta_ = false;
};

}  // namespace

int loopDeltaCount(const MigrationContext& context, SymbolId tempInput) {
  const SymbolId i0 =
      tempInput == kNoSymbol ? context.liftTargetInput(0) : tempInput;
  const SymbolId s0 = context.targetReset();
  int n = 0;
  for (const Transition& td : context.deltaTransitions())
    if (!(td.input == i0 && td.from == s0)) ++n;
  return n;
}

ReconfigurationProgram decodeOrder(const MigrationContext& context,
                                   const std::vector<int>& order,
                                   const DecodeOptions& options) {
  static metrics::Counter& decodeCalls =
      metrics::counter(metrics::kDecodeCalls);
  static metrics::Histogram& decodeLatency =
      metrics::histogram(metrics::kDecodeLatency);
  decodeCalls.add();
  pollCancel(options.cancel, "planner.decode");
  metrics::ScopedLatency latency(decodeLatency);
  trace::ScopedSpan span("planner.decode", "planner",
                         {trace::Arg::num(
                             "deltas", static_cast<std::int64_t>(
                                           order.size()))});
  Decoder decoder(context, options);
  const auto& deltas = decoder.loopDeltas();
  RFSM_CHECK(order.size() == deltas.size(),
             "order must be a permutation of the loop deltas");
  RFSM_CHECK(isPermutation(order), "order must be a permutation");
  for (const int index : order)
    decoder.processDelta(deltas[static_cast<std::size_t>(index)]);
  return decoder.finish();
}

namespace {

/// One thread's working copy of an evaluator's table, plus the undo log and
/// the permutation-check stamps.  The table equals the owner's next_ between
/// calls (every call undoes its writes), so it is re-copied only when the
/// thread switches evaluators.
struct CostScratch {
  std::uint64_t owner = 0;  ///< evaluator id the table belongs to; 0 = none
  std::vector<SymbolId> next;
  std::vector<std::pair<std::size_t, SymbolId>> undo;  ///< (cell, old value)
  std::vector<std::uint32_t> seen;  ///< == stamp: index already in the order
  std::uint32_t stamp = 0;
};

thread_local CostScratch tCostScratch;

std::atomic<std::uint64_t> gNextEvaluatorId{1};

}  // namespace

PaperCostEvaluator::PaperCostEvaluator(const MigrationContext& context,
                                       const DecodeOptions& options)
    : id_(gNextEvaluatorId.fetch_add(1, std::memory_order_relaxed)),
      cancel_(options.cancel),
      inputCount_(context.inputs().size()),
      s0_(context.targetReset()) {
  RFSM_CHECK(options.rule == DecodeRule::kPaper,
             "the cost evaluator implements the paper's decode rule only");
  const SymbolId i0 = options.tempInput == kNoSymbol
                          ? context.liftTargetInput(0)
                          : options.tempInput;
  RFSM_CHECK(context.inTargetInputs(i0),
             "temporary input must be an input of M'");
  auto cell = [&](SymbolId input, SymbolId state) {
    return static_cast<std::size_t>(state) *
               static_cast<std::size_t>(inputCount_) +
           static_cast<std::size_t>(input);
  };
  // The machine a decode starts from: M's cells, everything else
  // unspecified (MutableMachine's initial table).
  next_.assign(static_cast<std::size_t>(context.states().size()) *
                   static_cast<std::size_t>(inputCount_),
               kNoSymbol);
  for (SymbolId s = 0; s < context.states().size(); ++s) {
    if (!context.inSourceStates(s)) continue;
    for (SymbolId i = 0; i < inputCount_; ++i)
      if (context.inSourceInputs(i))
        next_[cell(i, s)] = context.sourceNext(i, s);
  }
  tempCell_ = cell(i0, s0_);
  tempTarget_ = context.targetNext(i0, s0_);
  for (const Transition& td : context.deltaTransitions()) {
    if (td.input == i0 && td.from == s0_)
      tempCellIsDelta_ = true;
    else
      deltas_.push_back(Delta{cell(td.input, td.from), td.from, td.to});
  }
}

int PaperCostEvaluator::cost(const std::vector<int>& order) const {
  pollCancel(cancel_, "planner.decode");
  RFSM_CHECK(order.size() == deltas_.size(),
             "order must be a permutation of the loop deltas");
  CostScratch& scratch = tCostScratch;
  if (scratch.owner != id_) {
    scratch.next.assign(next_.begin(), next_.end());
    scratch.owner = id_;
  }
  // Permutation check without clearing: an index is taken iff its stamp is
  // this call's.
  if (scratch.seen.size() < order.size()) scratch.seen.resize(order.size(), 0);
  if (++scratch.stamp == 0) {
    std::fill(scratch.seen.begin(), scratch.seen.end(), 0);
    scratch.stamp = 1;
  }
  bool permutation = true;
  for (const int index : order) {
    if (index < 0 || static_cast<std::size_t>(index) >= order.size() ||
        scratch.seen[static_cast<std::size_t>(index)] == scratch.stamp) {
      permutation = false;
      break;
    }
    scratch.seen[static_cast<std::size_t>(index)] = scratch.stamp;
  }
  RFSM_CHECK(permutation, "order must be a permutation");

  SymbolId* const next = scratch.next.data();
  auto write = [&](std::size_t cell, SymbolId value) {
    scratch.undo.emplace_back(cell, next[cell]);
    next[cell] = value;
  };
  // An existing path of length 1: some specified cell of `from` leads to
  // `to` (kNoSymbol never equals a state).
  auto hasEdge = [&](SymbolId from, SymbolId to) {
    const SymbolId* row =
        next + static_cast<std::size_t>(from) *
                   static_cast<std::size_t>(inputCount_);
    for (SymbolId i = 0; i < inputCount_; ++i)
      if (row[i] == to) return true;
    return false;
  };

  // Decoder's step accounting, rule kPaper: a leading reset, then per delta
  // [traverse | [reset +] temporary rewrite] + the delta rewrite, then the
  // temporary-cell repair and a closing reset.
  int length = 1;
  SymbolId state = s0_;
  bool tempDirty = false;
  for (const int index : order) {
    const Delta& td = deltas_[static_cast<std::size_t>(index)];
    if (state != td.from) {
      if (hasEdge(state, td.from)) {
        ++length;
      } else {
        if (state != s0_) {
          ++length;
          state = s0_;
        }
        if (state != td.from) {
          write(tempCell_, td.from);
          ++length;
          tempDirty = true;
        }
      }
    }
    write(td.cell, td.to);
    ++length;
    state = td.to;
  }
  if (tempDirty || tempCellIsDelta_) {
    if (state != s0_) ++length;
    ++length;
    state = tempTarget_;
  }
  if (state != s0_) ++length;

  for (auto it = scratch.undo.rbegin(); it != scratch.undo.rend(); ++it)
    next[it->first] = it->second;
  scratch.undo.clear();
  return length;
}

ReconfigurationProgram planGreedy(const MigrationContext& context,
                                  const DecodeOptions& options) {
  metrics::ScopedTimer timing(metrics::timer("planner.greedy"));
  trace::ScopedSpan span("planner.greedy", "planner");
  Decoder decoder(context, options);
  const auto& deltas = decoder.loopDeltas();
  std::vector<bool> done(deltas.size(), false);
  for (std::size_t round = 0; round < deltas.size(); ++round) {
    pollCancel(options.cancel, "planner.greedy");
    int best = -1;
    int bestCost = kInfinity + 1;
    for (std::size_t k = 0; k < deltas.size(); ++k) {
      if (done[k]) continue;
      const int cost = decoder.connectionCost(deltas[k]);
      if (cost < bestCost) {
        bestCost = cost;
        best = static_cast<int>(k);
      }
    }
    done[static_cast<std::size_t>(best)] = true;
    decoder.processDelta(deltas[static_cast<std::size_t>(best)]);
  }
  return decoder.finish();
}

EvolutionaryPlan planEvolutionary(const MigrationContext& context,
                                  const EvolutionConfig& config, Rng& rng,
                                  const DecodeOptions& options,
                                  ThreadPool* pool) {
  metrics::ScopedTimer timing(metrics::timer("planner.ea"));
  trace::ScopedSpan span("planner.ea", "planner");
  EvolutionResult evo;
  if (options.rule == DecodeRule::kPaper) {
    static metrics::Counter& decodeCalls =
        metrics::counter(metrics::kDecodeCalls);
    const PaperCostEvaluator evaluator(context, options);
    evo = evolvePermutation(
        evaluator.deltaCount(),
        [&evaluator](const Permutation& order) {
          return static_cast<double>(evaluator.cost(order));
        },
        config, rng, pool);
    // Each evaluation stands in for a decode: the counter keeps counting
    // them, so telemetry stays comparable with decodeOrder-scored runs.
    decodeCalls.add(static_cast<std::uint64_t>(evo.evaluations));
  } else {
    evo = evolvePermutation(
        loopDeltaCount(context, options.tempInput),
        [&](const Permutation& order) {
          return static_cast<double>(
              decodeOrder(context, order, options).length());
        },
        config, rng, pool);
  }

  EvolutionaryPlan plan;
  plan.program = decodeOrder(context, evo.best, options);
  plan.evaluations = evo.evaluations;
  plan.initialBest =
      evo.history.empty() ? evo.bestFitness : evo.history.front().bestFitness;
  plan.bestPerGeneration.reserve(evo.history.size());
  for (const GenerationStats& g : evo.history)
    plan.bestPerGeneration.push_back(g.bestFitness);
  return plan;
}

std::optional<ReconfigurationProgram> planExact(const MigrationContext& context,
                                                int maxDeltas,
                                                const DecodeOptions& options) {
  metrics::ScopedTimer timing(metrics::timer("planner.exact"));
  trace::ScopedSpan span("planner.exact", "planner");
  const int n = loopDeltaCount(context, options.tempInput);
  if (n > maxDeltas) return std::nullopt;
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::optional<ReconfigurationProgram> best;
  do {
    ReconfigurationProgram candidate = decodeOrder(context, order, options);
    if (!best.has_value() || candidate.length() < best->length())
      best = std::move(candidate);
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

ReconfigurationProgram planNoTemporary(const MigrationContext& context,
                                       SymbolId tempInput) {
  DecodeOptions options;
  options.tempInput = tempInput;
  options.rule = DecodeRule::kBestOfThree;
  options.allowTemporary = false;
  return planGreedy(context, options);
}

BatchReport planAllChecked(const std::vector<MigrationContext>& instances,
                           const BatchPlanFn& plan,
                           const BatchOptions& options) {
  metrics::ScopedTimer timing(metrics::timer("batch.plan_all"));
  static metrics::Histogram& instanceLatency =
      metrics::histogram(metrics::kInstanceLatency);
  static metrics::Counter& failureCounter =
      metrics::counter(metrics::kBatchInstanceFailures);
  static metrics::Counter& cancelledCounter =
      metrics::counter(metrics::kBatchCancelled);
  trace::ScopedSpan span(
      "batch.plan_all", "batch",
      {trace::Arg::num("instances",
                       static_cast<std::uint64_t>(instances.size())),
       trace::Arg::num("jobs", static_cast<std::int64_t>(options.jobs))});
  BatchReport report;
  report.programs.resize(instances.size());
  // Per-slot failure records; merged (in instance order) after the drain so
  // the parallel bodies never contend on a shared vector.
  std::vector<std::optional<InstanceFailure>> failures(instances.size());
  const Rng base(options.seed);
  ThreadPool pool(options.jobs);
  pool.parallelFor(instances.size(), [&](std::size_t k) {
    metrics::ScopedLatency latency(instanceLatency);
    trace::ScopedSpan instanceSpan(
        "batch.instance", "batch",
        {trace::Arg::num("instance", static_cast<std::uint64_t>(
                                         options.substreamBase + k))});
    InstanceFailure failure;
    failure.instance = k;
    try {
      // Not-yet-started instances stop here once the token expires, so a
      // deadline turns into cancelled slots, not a long tail of work.
      pollCancel(options.cancel, "batch.instance");
      Rng rng = base.substream(options.substreamBase + k);
      report.programs[k] = plan(instances[k], rng);
      return;
    } catch (const CancelledError& error) {
      failure.error = error.what();
      failure.cancelled = true;
      cancelledCounter.add();
    } catch (const std::exception& error) {
      // Poison this slot only: the planner threw (planner defect, degenerate
      // instance, ...), every other instance still runs.
      failure.error = error.what();
      failureCounter.add();
    }
    trace::instant("batch.instance_failed", "batch",
                   {trace::Arg::num("instance", static_cast<std::uint64_t>(
                                                    options.substreamBase + k)),
                    trace::Arg::boolean("cancelled", failure.cancelled),
                    trace::Arg::str("error", failure.error)});
    report.programs[k] = ReconfigurationProgram{};  // poisoned slot
    failures[k] = std::move(failure);
  });
  for (auto& failure : failures)
    if (failure.has_value()) report.failures.push_back(std::move(*failure));
  return report;
}

std::vector<ReconfigurationProgram> planAll(
    const std::vector<MigrationContext>& instances, const BatchPlanFn& plan,
    const BatchOptions& options) {
  BatchReport report = planAllChecked(instances, plan, options);
  if (!report.ok()) {
    std::string what = std::to_string(report.failures.size()) + " of " +
                       std::to_string(instances.size()) +
                       " instances failed; first: instance " +
                       std::to_string(report.failures.front().instance) +
                       ": " + report.failures.front().error;
    throw BatchError(what, std::move(report.failures));
  }
  return std::move(report.programs);
}

std::vector<EvolutionaryPlan> planEvolutionaryBatch(
    const std::vector<MigrationContext>& instances,
    const EvolutionConfig& config, const BatchOptions& options,
    const DecodeOptions& decode) {
  metrics::ScopedTimer timing(metrics::timer("batch.plan_evolutionary"));
  static metrics::Histogram& instanceLatency =
      metrics::histogram(metrics::kInstanceLatency);
  trace::ScopedSpan span(
      "batch.plan_evolutionary", "batch",
      {trace::Arg::num("instances",
                       static_cast<std::uint64_t>(instances.size())),
       trace::Arg::num("jobs", static_cast<std::int64_t>(options.jobs))});
  std::vector<EvolutionaryPlan> plans(instances.size());
  // Thread the batch's cancel token into the EA generation loop and the
  // decode path of every instance.
  EvolutionConfig batchConfig = config;
  DecodeOptions batchDecode = decode;
  if (options.cancel != nullptr) {
    batchConfig.cancel = options.cancel;
    batchDecode.cancel = options.cancel;
  }
  const Rng base(options.seed);
  ThreadPool pool(options.jobs);
  pool.parallelFor(instances.size(), [&](std::size_t k) {
    metrics::ScopedLatency latency(instanceLatency);
    trace::ScopedSpan instanceSpan(
        "batch.instance", "batch",
        {trace::Arg::num("instance", static_cast<std::uint64_t>(
                                         options.substreamBase + k))});
    pollCancel(options.cancel, "batch.instance");
    Rng rng = base.substream(options.substreamBase + k);
    // Parallelism is across instances here; each EA runs its fitness
    // serially (nested parallelFor would be inline anyway).
    plans[k] = planEvolutionary(instances[k], batchConfig, rng, batchDecode);
  });
  return plans;
}

}  // namespace rfsm
