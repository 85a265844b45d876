// Tests for the exact state-space search planner.
#include <gtest/gtest.h>

#include "core/apply.hpp"
#include "core/bounds.hpp"
#include "core/jsr.hpp"
#include "core/local_search.hpp"
#include "core/optimal.hpp"
#include "core/planners.hpp"
#include "gen/families.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "gen/samples.hpp"
#include "util/rng.hpp"

namespace rfsm {
namespace {

TEST(OptimalSearch, Example42FindsThePaperThreeCycleProgram) {
  // Sec. 4.3: with a temporary transition the single delta of Example 4.2
  // takes 3 cycles (jump, set, repair) — and no program can do better,
  // because the temp cell gets dirtied and must be repaired.
  const MigrationContext context(example42Source(), example42Target());
  const auto program = planOptimalSearch(context);
  ASSERT_TRUE(program.has_value());
  EXPECT_EQ(program->length(), 3);
  EXPECT_TRUE(validateProgram(context, *program).valid);
}

TEST(OptimalSearch, Example41WithinBoundsAndValid) {
  const MigrationContext context(example41Source(), example41Target());
  const auto program = planOptimalSearch(context);
  ASSERT_TRUE(program.has_value());
  const ValidationResult verdict = validateProgram(context, *program);
  EXPECT_TRUE(verdict.valid) << verdict.reason;
  EXPECT_GE(program->length(), programLowerBound(context));
  EXPECT_LE(program->length(), jsrUpperBound(context));
  // Never worse than the permutation-family exact planner.
  const auto permutationExact = planExact(context);
  ASSERT_TRUE(permutationExact.has_value());
  EXPECT_LE(program->length(), permutationExact->length());
}

TEST(OptimalSearch, IdentityMigrationCanBeFree) {
  const Machine m = onesDetector();
  const MigrationContext context(m, m);
  const auto program = planOptimalSearch(context);
  ASSERT_TRUE(program.has_value());
  // No deltas, machine already in S0 = S0': zero cycles.
  EXPECT_EQ(program->length(), 0);
  EXPECT_TRUE(validateProgram(context, *program).valid);
}

TEST(OptimalSearch, RespectsLimits) {
  Rng rng(3);
  RandomMachineSpec spec;
  spec.stateCount = 10;
  const Machine source = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.deltaCount = 10;
  const Machine target = mutateMachine(source, mutation, rng);
  const MigrationContext context(source, target);
  OptimalSearchOptions options;
  options.maxDeltas = 4;
  EXPECT_FALSE(planOptimalSearch(context, options).has_value());
  options.maxDeltas = 14;
  options.maxNodes = 100;
  EXPECT_FALSE(planOptimalSearch(context, options).has_value());
}

TEST(OptimalSearch, SampleUpgradesAreOptimallyPlanned) {
  for (const SampleMigration& pair : sampleMigrations()) {
    const MigrationContext context(pair.source, pair.target);
    const auto program = planOptimalSearch(context);
    ASSERT_TRUE(program.has_value()) << pair.name;
    EXPECT_TRUE(validateProgram(context, *program).valid) << pair.name;
    EXPECT_LE(program->length(), planGreedy(context).length()) << pair.name;
  }
}

/// Property sweep: the search result validates and lower-bounds every
/// heuristic planner.
class OptimalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimalPropertyTest, LowerBoundsAllHeuristics) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 419 + 3);
  RandomMachineSpec spec;
  spec.stateCount = 4 + static_cast<int>(rng.below(5));
  spec.inputCount = 2;
  const Machine source = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.deltaCount = 2 + static_cast<int>(rng.below(5));
  const Machine target = mutateMachine(source, mutation, rng);
  const MigrationContext context(source, target);

  const auto optimal = planOptimalSearch(context);
  ASSERT_TRUE(optimal.has_value());
  const ValidationResult verdict = validateProgram(context, *optimal);
  ASSERT_TRUE(verdict.valid) << verdict.reason;
  EXPECT_GE(optimal->length(), programLowerBound(context));

  EXPECT_LE(optimal->length(), planJsr(context).length());
  EXPECT_LE(optimal->length(), planGreedy(context).length());
  EXPECT_LE(optimal->length(), planTwoOpt(context).program.length());
  EvolutionConfig config;
  config.generations = 40;
  Rng eaRng(7);
  EXPECT_LE(optimal->length(),
            planEvolutionary(context, config, eaRng).program.length());
  if (const auto permutationExact = planExact(context, 7)) {
    EXPECT_LE(optimal->length(), permutationExact->length());
    // planExact opens with a reset, which is a no-op when S0 = S0': the
    // search, starting in S0, never pays that cycle.
    if (context.sourceReset() == context.targetReset()) {
      EXPECT_LE(optimal->length(), permutationExact->length() - 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptimalPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace rfsm
