// Tests for partial reconfiguration: delta classification and the
// Held-Karp-optimal output-only planner.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/apply.hpp"
#include "core/bounds.hpp"
#include "core/jsr.hpp"
#include "core/partial.hpp"
#include "core/planners.hpp"
#include "fsm/builder.hpp"
#include "gen/families.hpp"
#include "gen/generator.hpp"
#include "gen/samples.hpp"
#include "util/rng.hpp"

namespace rfsm {
namespace {

/// Output-only mutation: flip `count` outputs of random cells.
Machine flipOutputs(const Machine& source, int count, Rng& rng) {
  std::vector<SymbolId> next, out;
  for (SymbolId s = 0; s < source.stateCount(); ++s)
    for (SymbolId i = 0; i < source.inputCount(); ++i) {
      next.push_back(source.next(i, s));
      out.push_back(source.output(i, s));
    }
  std::vector<std::size_t> cells(out.size());
  for (std::size_t k = 0; k < cells.size(); ++k) cells[k] = k;
  rng.shuffle(cells);
  for (int k = 0; k < count; ++k) {
    auto& o = out[cells[static_cast<std::size_t>(k)]];
    SymbolId other;
    do {
      other = static_cast<SymbolId>(
          rng.below(static_cast<std::uint64_t>(source.outputCount())));
    } while (other == o);
    o = other;
  }
  // Rebuild with (state, input) cell order matching Machine's layout.
  std::vector<SymbolId> nextTable, outTable;
  std::size_t k = 0;
  for (SymbolId s = 0; s < source.stateCount(); ++s)
    for (SymbolId i = 0; i < source.inputCount(); ++i, ++k) {
      nextTable.push_back(next[k]);
      outTable.push_back(out[k]);
    }
  return Machine(source.name() + "_recolored", source.inputs(),
                 source.outputs(), source.states(), source.resetState(),
                 std::move(nextTable), std::move(outTable));
}

TEST(Classify, ParitySampleIsOutputOnly) {
  const MigrationContext context(sampleMachine("parity_even"),
                                 sampleMachine("parity_odd"));
  const DeltaClassification c = classifyDeltas(context);
  EXPECT_EQ(c.outputOnly, 4);  // every cell's output flips
  EXPECT_EQ(c.transitionOnly, 0);
  EXPECT_EQ(c.both, 0);
  EXPECT_EQ(c.structural, 0);
  EXPECT_TRUE(isOutputOnlyMigration(context));
}

TEST(Classify, Example41MixesCategories) {
  const MigrationContext context(example41Source(), example41Target());
  const DeltaClassification c = classifyDeltas(context);
  // (0,S1,S0,0): output change only; (1,S2,S3,0): target state S3 is new ->
  // structural; the two S3-row cells are structural too.
  EXPECT_EQ(c.outputOnly, 1);
  EXPECT_EQ(c.structural, 3);
  EXPECT_EQ(c.total(), context.deltaCount());
  EXPECT_FALSE(isOutputOnlyMigration(context));
}

TEST(Classify, TransitionOnlyCounted) {
  MachineBuilder a("a"), b("b");
  for (MachineBuilder* m : {&a, &b}) {
    m->addInput("0");
    m->addOutput("x");
    m->addState("P");
    m->addState("Q");
    m->setResetState("P");
    m->addTransition("0", "Q", "P", "x");
  }
  a.addTransition("0", "P", "P", "x");
  b.addTransition("0", "P", "Q", "x");  // retarget, same output
  const MigrationContext context(a.build(), b.build());
  const DeltaClassification c = classifyDeltas(context);
  EXPECT_EQ(c.transitionOnly, 1);
  EXPECT_EQ(c.total(), 1);
}

TEST(OutputOnly, OptimalNoWorseThanGreedyAndJsr) {
  Rng rng(31);
  RandomMachineSpec spec;
  spec.stateCount = 8;
  spec.inputCount = 2;
  spec.outputCount = 3;
  const Machine source = randomMachine(spec, rng);
  const Machine target = flipOutputs(source, 6, rng);
  const MigrationContext context(source, target);
  ASSERT_TRUE(isOutputOnlyMigration(context));
  ASSERT_EQ(context.deltaCount(), 6);

  const auto optimal = planOutputOnlyOptimal(context);
  ASSERT_TRUE(optimal.has_value());
  EXPECT_TRUE(validateProgram(context, *optimal).valid);
  EXPECT_LE(optimal->length(), planJsr(context).length());
}

TEST(OutputOnly, OptimalMatchesExhaustiveDecoder) {
  // On small instances the static-graph optimum can also be cross-checked
  // against the general exact planner (which may use temporaries and so can
  // only be shorter or equal... in fact output-only optimal with walks can
  // beat the paper decoder's reset+temp connections, so just require both
  // valid and optimal-within-family).
  Rng rng(37);
  RandomMachineSpec spec;
  spec.stateCount = 6;
  const Machine source = randomMachine(spec, rng);
  const Machine target = flipOutputs(source, 4, rng);
  const MigrationContext context(source, target);
  const auto optimal = planOutputOnlyOptimal(context);
  ASSERT_TRUE(optimal.has_value());
  EXPECT_TRUE(validateProgram(context, *optimal).valid);
  const auto exactGeneral = planExact(context, 8);
  ASSERT_TRUE(exactGeneral.has_value());
  EXPECT_TRUE(validateProgram(context, *exactGeneral).valid);
}

TEST(OutputOnly, RefusesMixedMigrations) {
  const MigrationContext context(example41Source(), example41Target());
  EXPECT_THROW(planOutputOnlyOptimal(context), MigrationError);
}

TEST(OutputOnly, OptimalRefusesLargeInstances) {
  Rng rng(41);
  RandomMachineSpec spec;
  spec.stateCount = 10;
  spec.outputCount = 2;
  const Machine source = randomMachine(spec, rng);
  const Machine target = flipOutputs(source, 16, rng);
  const MigrationContext context(source, target);
  EXPECT_FALSE(planOutputOnlyOptimal(context, /*maxDeltas=*/8).has_value());
}

TEST(OutputOnly, ZeroDeltasYieldsResetOnly) {
  const Machine m = sampleMachine("parity_even");
  const MigrationContext context(m, m);
  ASSERT_TRUE(isOutputOnlyMigration(context));
  const auto optimal = planOutputOnlyOptimal(context);
  ASSERT_TRUE(optimal.has_value());
  EXPECT_EQ(optimal->length(), 1);  // just the reset into S0'
  EXPECT_TRUE(validateProgram(context, *optimal).valid);
}

/// Property sweep: output-only plans validate and never use temporaries.
class OutputOnlyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OutputOnlyPropertyTest, PlansValidateWithoutTemporaries) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 503 + 7);
  RandomMachineSpec spec;
  spec.stateCount = 4 + static_cast<int>(rng.below(10));
  spec.inputCount = 1 + static_cast<int>(rng.below(3));
  spec.outputCount = 2 + static_cast<int>(rng.below(3));
  const Machine source = randomMachine(spec, rng);
  const int cells = source.stateCount() * source.inputCount();
  const int flips = 1 + static_cast<int>(rng.below(
      static_cast<std::uint64_t>(std::min(cells, 10))));
  const Machine target = flipOutputs(source, flips, rng);
  const MigrationContext context(source, target);
  ASSERT_TRUE(isOutputOnlyMigration(context));

  if (const auto optimal = planOutputOnlyOptimal(context)) {
    EXPECT_TRUE(validateProgram(context, *optimal).valid);
    EXPECT_EQ(optimal->temporaryCount(), 0);
    EXPECT_GE(optimal->length(), programLowerBound(context));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OutputOnlyPropertyTest,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace rfsm
