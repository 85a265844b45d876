// Tests for src/fsm: symbol tables, Machine invariants, builder validation,
// simulation, structural analyses, equivalence checking and minimization.
#include <gtest/gtest.h>

#include "fsm/analysis.hpp"
#include "fsm/builder.hpp"
#include "fsm/equivalence.hpp"
#include "fsm/machine.hpp"
#include "fsm/minimize.hpp"
#include "fsm/simulate.hpp"
#include "fsm/symbols.hpp"
#include "gen/families.hpp"
#include "gen/generator.hpp"
#include "util/rng.hpp"

namespace rfsm {
namespace {

TEST(SymbolTable, InternIsIdempotent) {
  SymbolTable t;
  EXPECT_EQ(t.intern("a"), 0);
  EXPECT_EQ(t.intern("b"), 1);
  EXPECT_EQ(t.intern("a"), 0);
  EXPECT_EQ(t.size(), 2);
}

TEST(SymbolTable, FindAndAt) {
  SymbolTable t({"x", "y"});
  EXPECT_EQ(t.at("y"), 1);
  EXPECT_FALSE(t.find("z").has_value());
  EXPECT_THROW(t.at("z"), ContractError);
}

TEST(SymbolTable, RejectsDuplicateInitializer) {
  EXPECT_THROW(SymbolTable({"a", "a"}), ContractError);
}

TEST(SymbolTable, MergeBuildsSuperset) {
  SymbolTable a({"p", "q"});
  SymbolTable b({"q", "r"});
  const MergedSymbols merged = mergeSymbols(a, b);
  EXPECT_EQ(merged.table.size(), 3);
  EXPECT_EQ(merged.fromA[0], merged.table.at("p"));
  EXPECT_EQ(merged.fromB[0], merged.table.at("q"));
  EXPECT_EQ(merged.fromB[1], merged.table.at("r"));
  // Symbols of `a` keep their ids.
  EXPECT_EQ(merged.fromA, (std::vector<SymbolId>{0, 1}));
}

TEST(Machine, PaperOnesDetectorShape) {
  const Machine m = onesDetector();
  EXPECT_EQ(m.stateCount(), 2);
  EXPECT_EQ(m.inputCount(), 2);
  EXPECT_EQ(m.outputCount(), 2);
  const SymbolId s0 = m.states().at("S0");
  const SymbolId s1 = m.states().at("S1");
  const SymbolId in1 = m.inputs().at("1");
  EXPECT_EQ(m.next(in1, s0), s1);
  EXPECT_EQ(m.outputs().name(m.output(in1, s1)), "1");
}

TEST(Machine, TransitionAtMatchesTables) {
  const Machine m = onesDetector();
  for (const Transition& t : m.transitions()) {
    EXPECT_EQ(m.next(t.input, t.from), t.to);
    EXPECT_EQ(m.output(t.input, t.from), t.output);
  }
  EXPECT_EQ(static_cast<int>(m.transitions().size()),
            m.stateCount() * m.inputCount());
}

TEST(Machine, StableTotalStates) {
  const Machine m = onesDetector();
  // (0, S0) and (1, S1) are self-loops.
  EXPECT_TRUE(m.isStableTotalState(m.inputs().at("0"), m.states().at("S0")));
  EXPECT_TRUE(m.isStableTotalState(m.inputs().at("1"), m.states().at("S1")));
  EXPECT_FALSE(m.isStableTotalState(m.inputs().at("1"), m.states().at("S0")));
}

TEST(Machine, MooreDetection) {
  // counterMachine emits the destination count on every in-edge -> Moore.
  EXPECT_TRUE(counterMachine(4).isMoore());
  // The ones detector has edges into S0 with differing... all edges into S0
  // emit 0 and into S1 emit 0 or 1 -> not Moore.
  EXPECT_FALSE(onesDetector().isMoore());
}

TEST(Machine, TransitionGraphShape) {
  const Machine m = onesDetector();
  const Digraph g = m.transitionGraph();
  EXPECT_EQ(g.nodeCount(), 2);
  EXPECT_EQ(g.edgeCount(), 4);
}

TEST(Machine, EqualityAndRename) {
  const Machine a = onesDetector();
  const Machine b = onesDetector().withName("other");
  EXPECT_TRUE(a == b);  // names do not participate in equality
  EXPECT_EQ(b.name(), "other");
  EXPECT_FALSE(a == zerosDetector());
}

TEST(Machine, RejectsMalformedTables) {
  SymbolTable in({"0"});
  SymbolTable out({"0"});
  SymbolTable st({"A"});
  EXPECT_THROW(Machine("bad", in, out, st, 0, {0, 0}, {0}), ContractError);
  EXPECT_THROW(Machine("bad", in, out, st, 5, {0}, {0}), ContractError);
  EXPECT_THROW(Machine("bad", in, out, st, 0, {3}, {0}), ContractError);
}

TEST(Builder, DetectsNonDeterminism) {
  MachineBuilder b("nd");
  b.addTransition("0", "A", "A", "x");
  b.addTransition("0", "A", "B", "x");
  b.setResetState("A");
  EXPECT_THROW(b.build(), FsmError);
}

TEST(Builder, DuplicateIdenticalTransitionIsFine) {
  MachineBuilder b("dup");
  b.addTransition("0", "A", "A", "x");
  b.addTransition("0", "A", "A", "x");
  b.setResetState("A");
  EXPECT_NO_THROW(b.build());
}

TEST(Builder, DetectsIncompleteness) {
  MachineBuilder b("inc");
  b.addInput("0");
  b.addInput("1");
  b.addTransition("0", "A", "A", "x");
  b.setResetState("A");
  EXPECT_EQ(b.unspecifiedCellCount(), 1);
  EXPECT_THROW(b.build(), FsmError);
}

TEST(Builder, RequiresResetState) {
  MachineBuilder b("norst");
  b.addTransition("0", "A", "A", "x");
  EXPECT_THROW(b.build(), FsmError);
}

TEST(Builder, CompleteWithSelfLoops) {
  MachineBuilder b("c");
  b.addInput("0");
  b.addInput("1");
  b.addTransition("0", "A", "B", "x");
  b.addTransition("0", "B", "A", "x");
  b.setResetState("A");
  b.completeWithSelfLoops("y");
  const Machine m = b.build();
  EXPECT_EQ(m.next(m.inputs().at("1"), m.states().at("A")),
            m.states().at("A"));
  EXPECT_EQ(m.outputs().name(m.output(m.inputs().at("1"), m.states().at("B"))),
            "y");
}

TEST(Builder, CompleteWithTargetState) {
  MachineBuilder b("c2");
  b.addInput("0");
  b.addInput("1");
  b.addTransition("0", "A", "B", "x");
  b.addTransition("0", "B", "A", "x");
  b.setResetState("A");
  b.completeWith("A", "x");
  const Machine m = b.build();
  EXPECT_EQ(m.next(m.inputs().at("1"), m.states().at("B")),
            m.states().at("A"));
}

TEST(Simulate, OnesDetectorTrace) {
  const Machine m = onesDetector();
  // Two or more successive ones -> 1 until a zero arrives.
  const auto out = runOnNames(m, {"1", "1", "1", "0", "1"});
  EXPECT_EQ(out, (std::vector<std::string>{"0", "1", "1", "0", "0"}));
}

TEST(Simulate, ResetReturnsToS0) {
  const Machine m = onesDetector();
  Simulator sim(m);
  sim.step(m.inputs().at("1"));
  EXPECT_EQ(m.states().name(sim.state()), "S1");
  sim.reset();
  EXPECT_EQ(sim.state(), m.resetState());
}

TEST(Simulate, TraceShapes) {
  const Machine m = zerosDetector();
  Simulator sim(m);
  const auto word = std::vector<SymbolId>{0, 0, 1};
  const SimulationTrace trace = sim.run(word);
  EXPECT_EQ(trace.states.size(), 4u);
  EXPECT_EQ(trace.outputs.size(), 3u);
  EXPECT_EQ(trace.states.front(), m.resetState());
}

TEST(Analysis, ReachabilityOnFamilies) {
  EXPECT_TRUE(isConnectedFromReset(onesDetector()));
  EXPECT_TRUE(isConnectedFromReset(counterMachine(5)));
  EXPECT_TRUE(unreachableStates(counterMachine(5)).empty());
}

TEST(Analysis, UnreachableStateDetected) {
  MachineBuilder b("island");
  b.addInput("0");
  b.addTransition("0", "A", "A", "x");
  b.addTransition("0", "B", "B", "x");
  b.setResetState("A");
  const Machine m = b.build();
  const auto dead = unreachableStates(m);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(m.states().name(dead[0]), "B");
}

TEST(Analysis, StableTotalStatesList) {
  const auto stable = stableTotalStates(onesDetector());
  EXPECT_EQ(stable.size(), 2u);
}

TEST(Equivalence, IdenticalMachinesEquivalent) {
  EXPECT_TRUE(areEquivalent(onesDetector(), onesDetector()));
}

TEST(Equivalence, DetectorsDiffer) {
  const EquivalenceResult r =
      checkEquivalence(onesDetector(), zerosDetector());
  EXPECT_FALSE(r.equivalent);
  ASSERT_TRUE(r.counterexample.has_value());
  // The word distinguishes them: replay both and compare final outputs.
  const auto outA = runOnNames(onesDetector(), *r.counterexample);
  const auto outB = runOnNames(zerosDetector(), *r.counterexample);
  EXPECT_NE(outA.back(), outB.back());
  // All earlier outputs agree (shortest counterexample).
  for (std::size_t k = 0; k + 1 < outA.size(); ++k)
    EXPECT_EQ(outA[k], outB[k]);
}

TEST(Equivalence, DifferentInputAlphabetsRejected) {
  EXPECT_THROW(checkEquivalence(onesDetector(), counterMachine(2)), FsmError);
}

TEST(Equivalence, RedundantStatesStillEquivalent) {
  // A 2-state detector vs. a version with a duplicated state.
  MachineBuilder b("dup");
  b.addInput("0");
  b.addInput("1");
  b.setResetState("S0");
  b.addTransition("1", "S0", "S1a", "0");
  b.addTransition("1", "S1a", "S1b", "1");
  b.addTransition("1", "S1b", "S1a", "1");
  b.addTransition("0", "S0", "S0", "0");
  b.addTransition("0", "S1a", "S0", "0");
  b.addTransition("0", "S1b", "S0", "0");
  const Machine m = b.build();
  EXPECT_TRUE(areEquivalent(m, onesDetector()));
}

TEST(Minimize, CollapsesRedundantStates) {
  MachineBuilder b("dup");
  b.addInput("0");
  b.addInput("1");
  b.setResetState("S0");
  b.addTransition("1", "S0", "S1a", "0");
  b.addTransition("1", "S1a", "S1b", "1");
  b.addTransition("1", "S1b", "S1a", "1");
  b.addTransition("0", "S0", "S0", "0");
  b.addTransition("0", "S1a", "S0", "0");
  b.addTransition("0", "S1b", "S0", "0");
  const Machine m = b.build();
  const MinimizationResult result = minimize(m);
  EXPECT_EQ(result.machine.stateCount(), 2);
  EXPECT_TRUE(areEquivalent(result.machine, m));
  EXPECT_EQ(result.blockOf[static_cast<std::size_t>(m.states().at("S1a"))],
            result.blockOf[static_cast<std::size_t>(m.states().at("S1b"))]);
}

TEST(Minimize, AlreadyMinimalIsUnchangedInSize) {
  const MinimizationResult result = minimize(onesDetector());
  EXPECT_EQ(result.machine.stateCount(), 2);
  EXPECT_TRUE(areEquivalent(result.machine, onesDetector()));
}

/// Property sweep: minimization preserves behaviour and is itself minimal
/// (re-minimizing does not shrink it further).
class FsmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FsmPropertyTest, MinimizePreservesBehaviourAndIsIdempotent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  RandomMachineSpec spec;
  spec.stateCount = 2 + static_cast<int>(rng.below(10));
  spec.inputCount = 1 + static_cast<int>(rng.below(3));
  spec.outputCount = 1 + static_cast<int>(rng.below(3));
  const Machine m = randomMachine(spec, rng);
  const MinimizationResult once = minimize(m);
  EXPECT_TRUE(areEquivalent(m, once.machine));
  const MinimizationResult twice = minimize(once.machine);
  EXPECT_EQ(once.machine.stateCount(), twice.machine.stateCount());
}

TEST_P(FsmPropertyTest, EquivalenceIsReflexiveOnRandomMachines) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 3);
  RandomMachineSpec spec;
  spec.stateCount = 2 + static_cast<int>(rng.below(8));
  const Machine m = randomMachine(spec, rng);
  EXPECT_TRUE(areEquivalent(m, m));
}

INSTANTIATE_TEST_SUITE_P(RandomMachines, FsmPropertyTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace rfsm
