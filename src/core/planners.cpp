#include "core/planners.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/jsr.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfsm {

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
  metrics::ScopedLatency latency(decodeLatency);
  trace::ScopedSpan span("planner.decode", "planner",
                         {trace::Arg::num(
                             "deltas", static_cast<std::int64_t>(
                                           order.size()))});
  return ConnectionKernel(context, options).decode(order);
}

ReconfigurationProgram planGreedy(const MigrationContext& context,
                                  const DecodeOptions& options) {
  metrics::ScopedTimer timing(metrics::timer("planner.greedy"));
  trace::ScopedSpan span("planner.greedy", "planner");
  return ConnectionKernel(context, options).greedy();
}

EvolutionaryPlan planEvolutionary(const MigrationContext& context,
                                  const EvolutionConfig& config, Rng& rng,
                                  const DecodeOptions& options,
                                  ThreadPool* pool) {
  metrics::ScopedTimer timing(metrics::timer("planner.ea"));
  trace::ScopedSpan span("planner.ea", "planner");
  static metrics::Counter& decodeCalls =
      metrics::counter(metrics::kDecodeCalls);
  const ConnectionKernel kernel(context, options);
  const EvolutionResult evo = evolvePermutation(
      kernel.deltaCount(),
      [&kernel](const Permutation& order) {
        return static_cast<double>(kernel.cost(order));
      },
      config, rng, pool);
  // Each evaluation stands in for a decode: the counter keeps counting
  // them, so telemetry stays comparable with decodeOrder-scored runs.
  decodeCalls.add(static_cast<std::uint64_t>(evo.evaluations));

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
  static metrics::Counter& decodeCalls =
      metrics::counter(metrics::kDecodeCalls);
  const int n = loopDeltaCount(context, options.tempInput);
  if (n > maxDeltas) return std::nullopt;
  const ConnectionKernel kernel(context, options);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> best = order;
  int bestLength = std::numeric_limits<int>::max();
  std::uint64_t scored = 0;
  do {
    const int length = kernel.cost(order);
    ++scored;
    if (length < bestLength) {
      bestLength = length;
      best = order;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  decodeCalls.add(scored);
  return decodeOrder(context, best, options);
}

ReconfigurationProgram planNoTemporary(const MigrationContext& context,
                                       SymbolId tempInput) {
  DecodeOptions options;
  options.tempInput = tempInput;
  options.rule = DecodeRule::kNoTemporary;
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
