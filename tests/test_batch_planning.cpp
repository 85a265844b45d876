// Tests for the parallel batch planning engine: bit-identical results for
// every job count (the engine's core contract), the planners' BFS against
// an uncached reference, and the telemetry counters it feeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <queue>
#include <vector>

#include "core/apply.hpp"
#include "core/connection.hpp"
#include "core/jsr.hpp"
#include "core/mutable_machine.hpp"
#include "core/planners.hpp"
#include "core/program.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "service/protocol.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace rfsm {
namespace {

MigrationContext makeInstance(int states, int deltas, std::uint64_t seed) {
  Rng rng(seed);
  RandomMachineSpec spec;
  spec.stateCount = states;
  spec.inputCount = 2;
  spec.outputCount = 2;
  const Machine source = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.deltaCount = deltas;
  const Machine target = mutateMachine(source, mutation, rng);
  return MigrationContext(source, target);
}

std::vector<MigrationContext> makeInstances(int count) {
  std::vector<MigrationContext> instances;
  instances.reserve(count);
  for (int k = 0; k < count; ++k)
    instances.push_back(makeInstance(8 + k % 3, 4 + k, 900 + k));
  return instances;
}

TEST(PlanAll, MatchesSerialPlannerPerInstance) {
  const auto instances = makeInstances(5);
  BatchOptions options;
  options.jobs = 2;
  const auto programs = planAll(
      instances,
      [](const MigrationContext& c, Rng&) { return planJsr(c); }, options);
  ASSERT_EQ(programs.size(), instances.size());
  for (std::size_t k = 0; k < instances.size(); ++k) {
    EXPECT_EQ(programs[k].steps, planJsr(instances[k]).steps);
    EXPECT_TRUE(validateProgram(instances[k], programs[k]).valid);
  }
}

TEST(PlanAll, BitIdenticalForEveryJobCount) {
  const auto instances = makeInstances(6);
  const BatchPlanFn ea = [](const MigrationContext& c, Rng& rng) {
    EvolutionConfig config;
    config.generations = 15;
    return planEvolutionary(c, config, rng).program;
  };
  BatchOptions serial, parallel;
  serial.jobs = 1;
  parallel.jobs = 4;
  serial.seed = parallel.seed = 7;
  const auto a = planAll(instances, ea, serial);
  const auto b = planAll(instances, ea, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k)
    EXPECT_EQ(a[k].steps, b[k].steps) << "instance " << k;
}

TEST(PlanAll, InstanceStreamKeyedByIndexNotBatchShape) {
  // Planning a prefix of the batch must give the same programs: instance k
  // always draws from substream(k).
  const auto instances = makeInstances(4);
  const std::vector<MigrationContext> prefix(instances.begin(),
                                             instances.begin() + 2);
  const BatchPlanFn ea = [](const MigrationContext& c, Rng& rng) {
    EvolutionConfig config;
    config.generations = 10;
    return planEvolutionary(c, config, rng).program;
  };
  const auto full = planAll(instances, ea);
  const auto part = planAll(prefix, ea);
  ASSERT_EQ(part.size(), 2u);
  EXPECT_EQ(full[0].steps, part[0].steps);
  EXPECT_EQ(full[1].steps, part[1].steps);
}

TEST(PlanAll, EmptyBatch) {
  EXPECT_TRUE(planAll({}, [](const MigrationContext& c, Rng&) {
                return planJsr(c);
              }).empty());
}

TEST(PlanAllChecked, ThrowingInstancePoisonsOnlyItsSlot) {
  metrics::resetAll();
  const auto instances = makeInstances(5);
  // Instance 2 "hits a planner defect"; every other instance must still
  // deliver its exact usual program.
  std::atomic<int> calls{0};
  const BatchPlanFn flaky = [&](const MigrationContext& c, Rng&) {
    calls.fetch_add(1);
    if (c.deltaCount() == instances[2].deltaCount())
      throw Error("simulated planner defect");
    return planJsr(c);
  };
  BatchOptions options;
  options.jobs = 2;
  const BatchReport report = planAllChecked(instances, flaky, options);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].instance, 2u);
  EXPECT_FALSE(report.failures[0].cancelled);
  EXPECT_NE(report.failures[0].error.find("simulated planner defect"),
            std::string::npos);
  EXPECT_EQ(calls.load(), 5);  // the batch drained fully
  ASSERT_EQ(report.programs.size(), 5u);
  for (std::size_t k = 0; k < instances.size(); ++k) {
    if (k == 2) {
      EXPECT_TRUE(report.programs[k].steps.empty());  // poisoned slot
    } else {
      EXPECT_EQ(report.programs[k].steps, planJsr(instances[k]).steps);
    }
  }
  EXPECT_EQ(metrics::counter(metrics::kBatchInstanceFailures).value(), 1u);
  metrics::resetAll();
}

TEST(PlanAll, AggregatesFailuresIntoBatchError) {
  const auto instances = makeInstances(4);
  const BatchPlanFn flaky = [&](const MigrationContext& c, Rng&) {
    if (c.deltaCount() == instances[1].deltaCount() ||
        c.deltaCount() == instances[3].deltaCount())
      throw Error("boom");
    return planJsr(c);
  };
  try {
    planAll(instances, flaky);
    FAIL() << "expected BatchError";
  } catch (const BatchError& error) {
    ASSERT_EQ(error.failures().size(), 2u);
    EXPECT_EQ(error.failures()[0].instance, 1u);
    EXPECT_EQ(error.failures()[1].instance, 3u);
    EXPECT_NE(std::string(error.what()).find("2 of 4"), std::string::npos);
  }
}

TEST(PlanAllChecked, SubstreamBaseReproducesAnyShardBitIdentically) {
  const auto instances = makeInstances(6);
  const BatchPlanFn ea = [](const MigrationContext& c, Rng& rng) {
    EvolutionConfig config;
    config.generations = 12;
    return planEvolutionary(c, config, rng).program;
  };
  BatchOptions whole;
  whole.seed = 11;
  const auto full = planAll(instances, ea, whole);
  // Re-plan the [2, 5) shard as its own batch: substreamBase keeps every
  // instance on its global stream — the worker-crash recovery contract.
  const std::vector<MigrationContext> shard(instances.begin() + 2,
                                            instances.begin() + 5);
  BatchOptions shardOptions;
  shardOptions.seed = 11;
  shardOptions.substreamBase = 2;
  shardOptions.jobs = 2;
  const auto replanned = planAll(shard, ea, shardOptions);
  ASSERT_EQ(replanned.size(), 3u);
  for (std::size_t k = 0; k < replanned.size(); ++k)
    EXPECT_EQ(replanned[k].steps, full[k + 2].steps) << "slot " << k;
}

TEST(PlanAllChecked, CancelledBatchMarksUnstartedInstancesCancelled) {
  const auto instances = makeInstances(4);
  CancelToken cancel;
  cancel.cancel();  // expired before the batch even starts
  BatchOptions options;
  options.cancel = &cancel;
  const BatchReport report = planAllChecked(
      instances, [](const MigrationContext& c, Rng&) { return planJsr(c); },
      options);
  ASSERT_EQ(report.failures.size(), 4u);
  for (const InstanceFailure& failure : report.failures)
    EXPECT_TRUE(failure.cancelled);
}

TEST(PlanEvolutionaryBatch, CancellationUnwindsCooperatively) {
  const auto instances = makeInstances(3);
  EvolutionConfig config;
  config.generations = 100000;  // seconds uncancelled, far past 30 ms
  CancelToken cancel;
  cancel.setDeadline(CancelToken::Clock::now() +
                     std::chrono::milliseconds(30));
  BatchOptions options;
  options.cancel = &cancel;
  const auto start = std::chrono::steady_clock::now();
  // The EA batch propagates the cancellation directly (callers like the
  // service worker map it to DEADLINE_EXCEEDED) rather than wrapping it.
  EXPECT_THROW(planEvolutionaryBatch(instances, config, options),
               CancelledError);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(20));
}

TEST(PlanEvolutionaryBatch, BitIdenticalForEveryJobCount) {
  const auto instances = makeInstances(5);
  EvolutionConfig config;
  config.generations = 20;
  BatchOptions serial, parallel;
  serial.jobs = 1;
  parallel.jobs = 3;
  const auto a = planEvolutionaryBatch(instances, config, serial);
  const auto b = planEvolutionaryBatch(instances, config, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].program.steps, b[k].program.steps) << "instance " << k;
    EXPECT_EQ(a[k].evaluations, b[k].evaluations);
    EXPECT_EQ(a[k].initialBest, b[k].initialBest);
    EXPECT_TRUE(validateProgram(instances[k], a[k].program).valid);
  }
}

TEST(PlanEvolutionary, PooledFitnessMatchesSerial) {
  const MigrationContext context = makeInstance(10, 8, 321);
  EvolutionConfig config;
  config.generations = 25;
  Rng serialRng(99), pooledRng(99);
  ThreadPool pool(4);
  const EvolutionaryPlan serial =
      planEvolutionary(context, config, serialRng);
  const EvolutionaryPlan pooled =
      planEvolutionary(context, config, pooledRng, {}, &pool);
  EXPECT_EQ(serial.program.steps, pooled.program.steps);
  EXPECT_EQ(serial.evaluations, pooled.evaluations);
  EXPECT_EQ(serial.bestPerGeneration, pooled.bestPerGeneration);
}

/// One row of the EA regression grid: an instance shape plus the EA and
/// decoder settings it is planned with.
struct EaGridRow {
  service::BatchSpec spec;
  EvolutionConfig config;
  int tempInput = -1;  ///< target input index for i0; -1 = the default
};

/// The fixed seeded grid behind the EA byte pin: every plan_ea benchmark
/// shape (|S| x |I| x |Td| = {16,32,64} x {2,4} x {10,16,21,27,32,38}, the
/// default 64x120 EA), plus rows for new states, |I| = 3, an explicit
/// temporary input, the other operators and |Td| <= 2.
std::vector<EaGridRow> eaGrid() {
  std::vector<EaGridRow> grid;
  std::uint64_t seed = 4000;
  auto add = [&](int states, int inputs, int deltas, int newStates) {
    EaGridRow row;
    row.spec.stateCount = states;
    row.spec.inputCount = inputs;
    row.spec.outputCount = 2;
    row.spec.deltaCount = deltas;
    row.spec.newStateCount = newStates;
    row.spec.seed = ++seed;
    grid.push_back(row);
    return &grid.back();
  };
  for (const int states : {16, 32, 64})
    for (const int inputs : {2, 4})
      for (const int deltas : {10, 16, 21, 27, 32, 38})
        add(states, inputs, std::min(deltas, states * inputs), 0);
  add(12, 2, 10, 2);
  add(10, 3, 14, 3);
  add(9, 3, 12, 0)->tempInput = 2;
  add(14, 2, 12, 0)->config.crossover = CrossoverOp::kPmx;
  add(14, 2, 12, 0)->config.mutation = MutationOp::kInsert;
  EaGridRow* pmx = add(11, 4, 15, 1);
  pmx->config.crossover = CrossoverOp::kPmx;
  pmx->config.mutation = MutationOp::kInversion;
  for (const int deltas : {0, 1, 2}) add(6, 2, deltas, 0);
  return grid;
}

/// FNV-1a over the grid's program texts (and each run's evaluation count
/// and per-generation best), planned serially or on `pool`.
std::uint64_t eaGridDigest(ThreadPool* pool) {
  std::uint64_t digest = kFnv1a64Basis;
  for (const EaGridRow& row : eaGrid()) {
    const MigrationContext context = service::makeInstance(row.spec, 0);
    DecodeOptions options;
    if (row.tempInput >= 0)
      options.tempInput = context.liftTargetInput(row.tempInput);
    Rng rng = Rng(row.spec.seed).substream(0);
    const EvolutionaryPlan plan =
        planEvolutionary(context, row.config, rng, options, pool);
    EXPECT_TRUE(validateProgram(context, plan.program).valid);
    digest = fnv1a64(programToText(context, plan.program), digest);
    digest = fnv1a64(static_cast<std::uint64_t>(plan.evaluations), digest);
    for (const double best : plan.bestPerGeneration)
      digest = fnv1a64(static_cast<std::uint64_t>(best), digest);
  }
  return digest;
}

// Regression pin of the EA's output, recorded with the EA scoring every
// order by decodeOrder(...).length(): the cost-only fitness and the reused
// offspring buffers must reproduce its programs, evaluation counts and
// search trajectory exactly.
constexpr std::uint64_t kEaGridDigest = 0x7132638a996e6f49ull;

TEST(PlanEvolutionary, GridProgramsPinnedSerially) {
  EXPECT_EQ(eaGridDigest(nullptr), kEaGridDigest);
}

TEST(PlanEvolutionary, GridProgramsPinnedOnAFourJobPool) {
  ThreadPool pool(4);
  EXPECT_EQ(eaGridDigest(&pool), kEaGridDigest);
}

TEST(PlanEvolutionary, DecodeCallsCountEveryEvaluationPlusTheWinner) {
  const MigrationContext context = makeInstance(12, 9, 77);
  EvolutionConfig config;
  config.generations = 15;
  ThreadPool pool(3);
  for (const DecodeRule rule : {DecodeRule::kPaper, DecodeRule::kBestOfThree})
    for (ThreadPool* maybePool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      metrics::Counter& calls = metrics::counter(metrics::kDecodeCalls);
      const std::uint64_t before = calls.value();
      DecodeOptions options;
      options.rule = rule;
      Rng rng(5);
      const EvolutionaryPlan plan =
          planEvolutionary(context, config, rng, options, maybePool);
      EXPECT_EQ(calls.value() - before,
                static_cast<std::uint64_t>(plan.evaluations) + 1)
          << "rule " << static_cast<int>(rule) << ", pool "
          << (maybePool != nullptr);
    }
}

/// Uncached single-source BFS straight off the public cell accessors, for
/// checking the kernel's BFS after arbitrary table writes.
std::vector<int> referenceDistances(const MutableMachine& machine,
                                    SymbolId from) {
  const MigrationContext& context = machine.context();
  const int stateCount = static_cast<int>(context.states().size());
  const int inputCount = static_cast<int>(context.inputs().size());
  std::vector<int> dist(stateCount, -1);
  dist[from] = 0;
  std::queue<SymbolId> frontier;
  frontier.push(from);
  while (!frontier.empty()) {
    const SymbolId s = frontier.front();
    frontier.pop();
    for (SymbolId u = 0; u < inputCount; ++u) {
      if (!machine.isSpecified(u, s)) continue;
      const SymbolId t = machine.next(u, s);
      if (dist[t] != -1) continue;
      dist[t] = dist[s] + 1;
      frontier.push(t);
    }
  }
  return dist;
}

/// The machine's next-state table in the kernel's flat layout (cell
/// state·|I| + input, kNoSymbol = unspecified).
std::vector<SymbolId> flatTable(const MutableMachine& machine) {
  const MigrationContext& context = machine.context();
  std::vector<SymbolId> table;
  for (SymbolId s = 0; s < context.states().size(); ++s)
    for (SymbolId i = 0; i < context.inputs().size(); ++i)
      table.push_back(machine.isSpecified(i, s) ? machine.next(i, s)
                                                : kNoSymbol);
  return table;
}

TEST(BfsCache, MatchesUncachedReferenceAfterEveryWrite) {
  const MigrationContext context = makeInstance(9, 7, 555);
  MutableMachine machine(context);
  const ReconfigurationProgram program = planJsr(context);
  const int stateCount = static_cast<int>(context.states().size());
  const SymbolId inputCount = context.inputs().size();

  // The kernel's own table is M's.
  const ConnectionKernel kernel(context);
  for (SymbolId s = 0; s < stateCount; ++s)
    EXPECT_EQ(kernel.bfs(s).dist, referenceDistances(machine, s))
        << "source " << s;

  // One tree rebuilt in place after every write, as a walk's rows are.
  BfsTree tree;
  auto checkAllSources = [&]() {
    const std::vector<SymbolId> table = flatTable(machine);
    for (SymbolId s = 0; s < stateCount; ++s) {
      tree.build(table, inputCount, s);
      const std::vector<int> reference = referenceDistances(machine, s);
      ASSERT_EQ(static_cast<int>(tree.dist.size()), stateCount);
      // Both use -1 for unreachable states.
      EXPECT_EQ(tree.dist, reference) << "source " << s;
    }
  };

  checkAllSources();
  for (const ReconfigStep& step : program.steps) {
    machine.applyStep(step);
    checkAllSources();  // rewrites change the graph; the tree must follow
  }
  EXPECT_TRUE(machine.matchesTarget());
}

TEST(BfsCache, PathInputsWalkToTheTarget) {
  const MigrationContext context = makeInstance(8, 5, 808);
  const MutableMachine machine(context);
  const ConnectionKernel kernel(context);
  const int stateCount = static_cast<int>(context.states().size());
  const SymbolId from = machine.state();
  const BfsTree tree = kernel.bfs(from);
  const std::vector<int> reference = referenceDistances(machine, from);
  for (SymbolId to = 0; to < stateCount; ++to) {
    if (tree.dist[to] < 0) {
      EXPECT_EQ(reference[to], -1);
      continue;
    }
    const std::vector<SymbolId> inputs = tree.walkTo(to);
    EXPECT_EQ(static_cast<int>(inputs.size()), tree.dist[to]);
    EXPECT_EQ(tree.dist[to], reference[to]);
    SymbolId here = from;
    for (const SymbolId u : inputs) {
      ASSERT_TRUE(machine.isSpecified(u, here));
      here = machine.next(u, here);
    }
    EXPECT_EQ(here, to);
  }
}

TEST(Telemetry, BatchPlanningFeedsTheCounters) {
  metrics::resetAll();
  const auto instances = makeInstances(3);
  EvolutionConfig config;
  config.generations = 10;
  const auto plans = planEvolutionaryBatch(instances, config);
  for (std::size_t k = 0; k < plans.size(); ++k)
    validateProgram(instances[k], plans[k].program);
  EXPECT_GT(metrics::counter(metrics::kDecodeCalls).value(), 0u);
  EXPECT_EQ(metrics::counter(metrics::kProgramsValidated).value(),
            instances.size());
  EXPECT_GT(metrics::timer("batch.plan_evolutionary").count(), 0u);
  EXPECT_GT(metrics::timer("planner.ea").count(), 0u);
  metrics::resetAll();
}

}  // namespace
}  // namespace rfsm
