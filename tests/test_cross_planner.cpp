// Cross-planner consistency: relationships that must hold between the
// planner families on the same instance.
//
//  * The state-space optimal search subsumes walks-only programs, so it is
//    never beaten by the output-only Held-Karp planner on output-only
//    instances.
//  * The peephole optimizer applied to any planner's output never breaks
//    the ordering relations.
//  * All planners agree on *what* machine results (the target), differing
//    only in the path taken.
#include <gtest/gtest.h>

#include "core/apply.hpp"
#include "core/jsr.hpp"
#include "core/local_search.hpp"
#include "core/optimal.hpp"
#include "core/partial.hpp"
#include "core/peephole.hpp"
#include "core/planners.hpp"
#include "fsm/equivalence.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "gen/samples.hpp"
#include "util/rng.hpp"

namespace rfsm {
namespace {

/// Output-only random instance.
MigrationContext outputOnlyInstance(std::uint64_t seed, int flips) {
  Rng rng(seed);
  RandomMachineSpec spec;
  spec.stateCount = 6;
  spec.inputCount = 2;
  spec.outputCount = 3;
  const Machine source = randomMachine(spec, rng);
  // Flip outputs of `flips` distinct cells.
  std::vector<SymbolId> next, out;
  for (SymbolId s = 0; s < source.stateCount(); ++s)
    for (SymbolId i = 0; i < source.inputCount(); ++i) {
      next.push_back(source.next(i, s));
      out.push_back(source.output(i, s));
    }
  std::vector<std::size_t> cells(out.size());
  for (std::size_t k = 0; k < cells.size(); ++k) cells[k] = k;
  rng.shuffle(cells);
  for (int k = 0; k < flips; ++k) {
    auto& o = out[cells[static_cast<std::size_t>(k)]];
    o = (o + 1) % source.outputCount();
  }
  const Machine target(source.name() + "_recolor", source.inputs(),
                       source.outputs(), source.states(),
                       source.resetState(), std::move(next), std::move(out));
  return MigrationContext(source, target);
}

class CrossPlannerTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossPlannerTest, OptimalSearchSubsumesOutputOnlyOptimal) {
  const MigrationContext context = outputOnlyInstance(
      static_cast<std::uint64_t>(GetParam()) * 1423 + 5, 4);
  ASSERT_TRUE(isOutputOnlyMigration(context));
  const auto heldKarp = planOutputOnlyOptimal(context);
  const auto search = planOptimalSearch(context);
  ASSERT_TRUE(heldKarp.has_value());
  ASSERT_TRUE(search.has_value());
  EXPECT_TRUE(validateProgram(context, *heldKarp).valid);
  EXPECT_TRUE(validateProgram(context, *search).valid);
  // Walks-only programs are a subset of the search's move family.
  EXPECT_LE(search->length(), heldKarp->length());
  // The output-only planner opens with a reset, which is a no-op when
  // S0 = S0': the search, starting in S0, never pays that cycle.
  if (context.sourceReset() == context.targetReset()) {
    EXPECT_LE(search->length(), heldKarp->length() - 1);
  }
}

TEST_P(CrossPlannerTest, PeepholePreservesOrderingRelations) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1511 + 3);
  RandomMachineSpec spec;
  spec.stateCount = 6;
  spec.inputCount = 2;
  const Machine source = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.deltaCount = 4;
  const Machine target = mutateMachine(source, mutation, rng);
  const MigrationContext context(source, target);

  const ReconfigurationProgram jsr = planJsr(context);
  const ReconfigurationProgram jsrOpt = optimizeProgram(context, jsr).program;
  const auto optimal = planOptimalSearch(context);
  ASSERT_TRUE(optimal.has_value());
  // The optimizer shortens or preserves; the optimum still lower-bounds it.
  EXPECT_LE(jsrOpt.length(), jsr.length());
  EXPECT_LE(optimal->length(), jsrOpt.length());
  EXPECT_TRUE(validateProgram(context, jsrOpt).valid);
}

TEST_P(CrossPlannerTest, AllPlannersRealizeTheSameMachine) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1613 + 9);
  RandomMachineSpec spec;
  spec.stateCount = 5;
  spec.inputCount = 2;
  const Machine source = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.deltaCount = 3;
  const Machine target = mutateMachine(source, mutation, rng);
  const MigrationContext context(source, target);

  EvolutionConfig config;
  config.generations = 20;
  Rng eaRng(1);
  const ReconfigurationProgram programs[] = {
      planJsr(context), planGreedy(context),
      planEvolutionary(context, config, eaRng).program,
      planTwoOpt(context).program};
  for (const ReconfigurationProgram& z : programs) {
    MutableMachine machine = replayProgram(context, z);
    ASSERT_TRUE(machine.matchesTarget());
    // The realized machine is behaviourally the target, whatever the path.
    EXPECT_TRUE(areEquivalent(machine.extractTarget(), target));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossPlannerTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace rfsm
