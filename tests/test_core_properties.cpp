// Property tests over randomly generated migration instances: every planner
// must produce a validating program; lengths must respect the Thm. 4.2/4.3
// bounds; JSR must hit its formula exactly; the EA must never lose to its
// own initial population.
#include <gtest/gtest.h>

#include <optional>

#include "core/apply.hpp"
#include "core/bounds.hpp"
#include "core/connection.hpp"
#include "core/jsr.hpp"
#include "core/planners.hpp"
#include "core/sequence.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rfsm {
namespace {

struct InstanceSpec {
  int states;
  int inputs;
  int deltas;
  int newStates;
};

/// Builds a random migration instance from a sweep parameter.
MigrationContext makeInstance(const InstanceSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  RandomMachineSpec machineSpec;
  machineSpec.stateCount = spec.states;
  machineSpec.inputCount = spec.inputs;
  machineSpec.outputCount = 2;
  const Machine source = randomMachine(machineSpec, rng);
  MutationSpec mutation;
  mutation.deltaCount = spec.deltas;
  mutation.newStateCount = spec.newStates;
  const Machine target = mutateMachine(source, mutation, rng);
  return MigrationContext(source, target);
}

class MigrationPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  MigrationContext instance() const {
    const auto [variant, seed] = GetParam();
    // Four instance shapes: small/large, with/without new states.
    static const InstanceSpec specs[] = {
        {4, 2, 3, 0},
        {8, 2, 6, 0},
        {6, 3, 8, 1},
        {12, 2, 10, 2},
    };
    return makeInstance(specs[static_cast<std::size_t>(variant)],
                        static_cast<std::uint64_t>(seed) * 7919 + 17);
  }
};

TEST_P(MigrationPropertyTest, MutatorProducesExactDeltaCount) {
  const auto [variant, seed] = GetParam();
  static const int expected[] = {3, 6, 8, 10};
  const MigrationContext context = instance();
  EXPECT_EQ(context.deltaCount(),
            expected[static_cast<std::size_t>(variant)]);
}

TEST_P(MigrationPropertyTest, JsrHitsItsFormulaAndValidates) {
  const MigrationContext context = instance();
  const ReconfigurationProgram z = planJsr(context);
  const ValidationResult result = validateProgram(context, z);
  EXPECT_TRUE(result.valid) << result.reason;
  // Exact length: 3*|Td|+3 normally, 3*|Td| when the temp cell is a delta.
  const SymbolId i0 = context.liftTargetInput(0);
  bool tempCellIsDelta = false;
  for (const Transition& td : context.deltaTransitions())
    if (td.input == i0 && td.from == context.targetReset())
      tempCellIsDelta = true;
  const int expected =
      tempCellIsDelta ? 3 * context.deltaCount()
                      : 3 * context.deltaCount() + 3;
  EXPECT_EQ(z.length(), expected);
  EXPECT_LE(z.length(), jsrUpperBound(context));  // Thm. 4.2
}

TEST_P(MigrationPropertyTest, GreedyValidatesAndRespectsBounds) {
  const MigrationContext context = instance();
  const ReconfigurationProgram z = planGreedy(context);
  const ValidationResult result = validateProgram(context, z);
  EXPECT_TRUE(result.valid) << result.reason;
  EXPECT_GE(z.length(), programLowerBound(context));  // Thm. 4.3
  EXPECT_LE(z.length(), jsrUpperBound(context));
}

TEST_P(MigrationPropertyTest, EvolutionaryValidatesAndBeatsItsSeedPopulation) {
  const auto [variant, seed] = GetParam();
  const MigrationContext context = instance();
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
  EvolutionConfig config;
  config.populationSize = 24;
  config.generations = 30;
  const EvolutionaryPlan plan = planEvolutionary(context, config, rng);
  const ValidationResult result = validateProgram(context, plan.program);
  EXPECT_TRUE(result.valid) << result.reason;
  EXPECT_LE(plan.program.length(), static_cast<int>(plan.initialBest));
  EXPECT_GE(plan.program.length(), programLowerBound(context));
  EXPECT_LE(plan.program.length(), jsrUpperBound(context));
}

TEST_P(MigrationPropertyTest, BestOfThreeDecoderValidates) {
  const auto [variant, seed] = GetParam();
  const MigrationContext context = instance();
  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 3);
  DecodeOptions options;
  options.rule = DecodeRule::kBestOfThree;
  EvolutionConfig config;
  config.populationSize = 16;
  config.generations = 15;
  const EvolutionaryPlan plan =
      planEvolutionary(context, config, rng, options);
  const ValidationResult result = validateProgram(context, plan.program);
  EXPECT_TRUE(result.valid) << result.reason;
}

TEST_P(MigrationPropertyTest, NoTemporaryPlannerValidates) {
  const MigrationContext context = instance();
  const ReconfigurationProgram z = planNoTemporary(context);
  const ValidationResult result = validateProgram(context, z);
  EXPECT_TRUE(result.valid) << result.reason;
}

TEST_P(MigrationPropertyTest, SequenceRoundTripPreservesPrograms) {
  const MigrationContext context = instance();
  const ReconfigurationProgram z = planGreedy(context);
  const ReconfigurationProgram back =
      programFromSequence(sequenceFromProgram(z));
  ASSERT_EQ(back.length(), z.length());
  // Replaying the round-tripped program must still validate (the
  // `temporary` flag is presentation-only and may be dropped).
  EXPECT_TRUE(validateProgram(context, back).valid);
}

INSTANTIATE_TEST_SUITE_P(Instances, MigrationPropertyTest,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 8)));

constexpr DecodeRule kEveryRule[] = {DecodeRule::kPaper,
                                     DecodeRule::kBestOfThree,
                                     DecodeRule::kNoTemporary};

// The kernel's cost walk against its decoding walk, and every decoded
// program against MutableMachine replay (validateProgram), which shares no
// code with the walk: on random orders over random instances, under every
// rule, cost(order) must equal the decoded program's length and that
// program must realize M'.
TEST(PaperCostEvaluator, EqualsDecodedLengthOnRandomOrders) {
  int newStateCases = 0, explicitTempCases = 0, tempDeltaCases = 0;
  int emptyCases = 0, singleCases = 0, wideCases = 0, orders = 0;
  for (const int states : {2, 3, 5, 8, 13}) {
    for (const int inputs : {1, 2, 3, 4}) {
      for (const int newStates : {0, 1, 2}) {
        for (const int deltas : {0, 1, 2, 4, 7, 12, 20}) {
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            const InstanceSpec spec{states, inputs, deltas, newStates};
            const std::uint64_t instanceSeed =
                seed * 1000003 + static_cast<std::uint64_t>(
                                     states * 1000 + inputs * 100 +
                                     deltas * 10 + newStates);
            std::optional<MigrationContext> context;
            try {
              context.emplace(makeInstance(spec, instanceSeed));
            } catch (const Error&) {
              continue;  // infeasible shape (mutator or generator refused)
            }
            // The default temporary input, then every input of M'.
            for (int temp = -1; temp < context->targetMachine().inputCount();
                 ++temp) {
              DecodeOptions options;
              if (temp >= 0) options.tempInput = context->liftTargetInput(temp);
              const SymbolId i0 = temp >= 0 ? options.tempInput
                                            : context->liftTargetInput(0);
              const int n = loopDeltaCount(*context, options.tempInput);
              for (const Transition& td : context->deltaTransitions())
                if (td.input == i0 && td.from == context->targetReset())
                  ++tempDeltaCases;
              newStateCases += newStates > 0;
              explicitTempCases += temp >= 0;
              emptyCases += n == 0;
              singleCases += n == 1;
              wideCases += inputs == 4;
              for (const DecodeRule rule : kEveryRule) {
                options.rule = rule;
                const ConnectionKernel kernel(*context, options);
                ASSERT_EQ(kernel.deltaCount(), n);
                Rng rng(instanceSeed ^ 0x5eed);
                for (int k = 0; k < 12; ++k) {
                  const Permutation order = randomPermutation(n, rng);
                  ++orders;
                  const ReconfigurationProgram program =
                      decodeOrder(*context, order, options);
                  const ValidationResult verdict =
                      validateProgram(*context, program);
                  ASSERT_EQ(kernel.cost(order), program.length())
                      << "repro: |S| " << states << ", |I| " << inputs
                      << ", |Td| " << deltas << ", new states " << newStates
                      << ", seed " << instanceSeed << ", temp input index "
                      << temp << ", rule " << static_cast<int>(rule)
                      << ", order #" << k;
                  ASSERT_TRUE(verdict.valid)
                      << verdict.reason << "; repro: |S| " << states
                      << ", |I| " << inputs << ", |Td| " << deltas
                      << ", new states " << newStates << ", seed "
                      << instanceSeed << ", temp input index " << temp
                      << ", rule " << static_cast<int>(rule) << ", order #"
                      << k;
                }
              }
            }
          }
        }
      }
    }
  }
  // The grid must reach every case the walk special-cases.
  EXPECT_GT(newStateCases, 0);
  EXPECT_GT(explicitTempCases, 0);
  EXPECT_GT(tempDeltaCases, 0);
  EXPECT_GT(emptyCases, 0);
  EXPECT_GT(singleCases, 0);
  EXPECT_GT(wideCases, 0);
  EXPECT_GT(orders, 30000);
}

TEST(PaperCostEvaluator, SwitchingEvaluatorsOnOneThreadKeepsEachExact) {
  // Each thread keeps one scratch table; interleaving two kernels must
  // re-seed it, never score one instance on the other's table.
  const MigrationContext a = makeInstance({8, 2, 9, 1}, 11);
  const MigrationContext b = makeInstance({6, 3, 7, 0}, 12);
  for (const DecodeRule rule : kEveryRule) {
    DecodeOptions options;
    options.rule = rule;
    const ConnectionKernel ka(a, options), kb(b, options);
    Rng rng(3);
    for (int k = 0; k < 50; ++k) {
      const Permutation pa = randomPermutation(ka.deltaCount(), rng);
      const Permutation pb = randomPermutation(kb.deltaCount(), rng);
      EXPECT_EQ(ka.cost(pa), decodeOrder(a, pa, options).length());
      EXPECT_EQ(kb.cost(pb), decodeOrder(b, pb, options).length());
    }
  }
}

TEST(PaperCostEvaluator, KeepsTheDecoderChecks) {
  const MigrationContext context = makeInstance({6, 2, 5, 0}, 21);
  for (const DecodeRule rule : kEveryRule) {
    DecodeOptions options;
    options.rule = rule;
    const ConnectionKernel kernel(context, options);
    const int n = kernel.deltaCount();
    ASSERT_GE(n, 3);
    Permutation order(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) order[static_cast<std::size_t>(k)] = k;
    Permutation shorter(order.begin(), order.end() - 1);
    Permutation repeated = order;
    repeated[1] = repeated[0];
    Permutation outOfRange = order;
    outOfRange[2] = n;
    for (const Permutation& bad : {shorter, repeated, outOfRange}) {
      EXPECT_THROW(kernel.cost(bad), ContractError);
      EXPECT_THROW(kernel.decode(bad), ContractError);
      EXPECT_THROW(decodeOrder(context, bad, options), ContractError);
    }
    // A rejected order leaves the scratch table intact.
    EXPECT_EQ(kernel.cost(order), decodeOrder(context, order, options).length());

    CancelToken expired;
    expired.cancel();
    options.cancel = &expired;
    const ConnectionKernel cancelled(context, options);
    EXPECT_THROW(cancelled.cost(order), CancelledError);
    EXPECT_THROW(cancelled.decode(order), CancelledError);
    EXPECT_THROW(cancelled.greedy(), CancelledError);
  }
}

// Pooled threads share one kernel per rule (and switch between two kernels)
// while each walks its own scratch table: every cost and every program must
// equal the serial one.
TEST(ConnectionKernel, PooledCostAndDecodeMatchSerialForEveryRule) {
  const MigrationContext a = makeInstance({12, 2, 10, 2}, 31);
  const MigrationContext b = makeInstance({9, 3, 11, 1}, 32);
  ThreadPool pool(4);
  for (const DecodeRule rule : kEveryRule) {
    DecodeOptions options;
    options.rule = rule;
    const ConnectionKernel ka(a, options), kb(b, options);
    constexpr std::size_t kOrders = 400;
    std::vector<Permutation> orders;
    Rng rng(7);
    for (std::size_t k = 0; k < kOrders; ++k)
      orders.push_back(randomPermutation(
          (k % 2 == 0 ? ka : kb).deltaCount(), rng));
    std::vector<int> costs(kOrders);
    std::vector<ReconfigurationProgram> programs(kOrders);
    pool.parallelFor(kOrders, [&](std::size_t k) {
      const ConnectionKernel& kernel = k % 2 == 0 ? ka : kb;
      costs[k] = kernel.cost(orders[k]);
      programs[k] = kernel.decode(orders[k]);
    });
    for (std::size_t k = 0; k < kOrders; ++k) {
      const MigrationContext& context = k % 2 == 0 ? a : b;
      const ReconfigurationProgram serial =
          decodeOrder(context, orders[k], options);
      EXPECT_EQ(costs[k], serial.length())
          << "rule " << static_cast<int>(rule) << ", order #" << k;
      EXPECT_EQ(programs[k].steps, serial.steps)
          << "rule " << static_cast<int>(rule) << ", order #" << k;
    }
  }
}

TEST(MutatorEdgeCases, ZeroDeltasIsIdentityMigration) {
  Rng rng(5);
  RandomMachineSpec spec;
  const Machine m = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.deltaCount = 0;
  const Machine same = mutateMachine(m, mutation, rng);
  const MigrationContext context(m, same);
  EXPECT_EQ(context.deltaCount(), 0);
}

TEST(MutatorEdgeCases, InfeasibleRequestsRejected) {
  Rng rng(6);
  RandomMachineSpec spec;
  spec.stateCount = 3;
  spec.inputCount = 2;
  const Machine m = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.deltaCount = 100;  // more than 3*2 old cells
  EXPECT_THROW(mutateMachine(m, mutation, rng), MutationError);
  mutation.deltaCount = 1;
  mutation.newStateCount = 1;  // needs >= inputCount+1 = 3 deltas
  EXPECT_THROW(mutateMachine(m, mutation, rng), MutationError);
}

TEST(MutatorEdgeCases, NewStatesAppearInTargetAlphabet) {
  Rng rng(7);
  RandomMachineSpec spec;
  spec.stateCount = 4;
  spec.inputCount = 2;
  const Machine m = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.newStateCount = 2;
  mutation.deltaCount = 2 * (2 + 1) + 1;
  const Machine target = mutateMachine(m, mutation, rng);
  EXPECT_EQ(target.stateCount(), 6);
  const MigrationContext context(m, target);
  EXPECT_EQ(context.deltaCount(), mutation.deltaCount);
}

}  // namespace
}  // namespace rfsm
