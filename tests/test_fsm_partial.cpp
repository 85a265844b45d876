// Tests for incompletely specified machines: specification bookkeeping,
// completion and the containment relation.
#include <gtest/gtest.h>

#include "fsm/builder.hpp"
#include "fsm/partial_machine.hpp"
#include "gen/families.hpp"
#include "util/rng.hpp"

namespace rfsm {
namespace {

/// A small 4-state ISFSM with open next states and don't-care outputs.
PartialMachine sampleSpec() {
  SymbolTable inputs({"0", "1"});
  SymbolTable outputs({"x", "y"});
  SymbolTable states({"A", "B", "C", "D"});
  PartialMachine spec("spec", inputs, outputs, states, states.at("A"));
  const SymbolId i0 = 0, i1 = 1, x = 0, y = 1;
  const SymbolId A = 0, B = 1, C = 2, D = 3;
  spec.specify(i0, A, B, x);
  spec.specify(i1, A, C, x);
  spec.specify(i0, B, D, y);
  // (i1, B) fully unspecified.
  spec.specify(i0, C, D, kNoSymbol);  // next specified, output don't care
  spec.specify(i1, C, kNoSymbol, y);  // output specified, next don't care
  spec.specify(i0, D, A, x);
  spec.specify(i1, D, A, y);
  return spec;
}

TEST(PartialMachine, SpecifyAndQuery) {
  const PartialMachine spec = sampleSpec();
  EXPECT_EQ(spec.next(0, 0), 1);                 // (0, A) -> B
  EXPECT_EQ(spec.output(0, 2), kNoSymbol);       // (0, C) output open
  EXPECT_EQ(spec.next(1, 2), kNoSymbol);         // (1, C) next open
  EXPECT_FALSE(spec.isComplete());
  EXPECT_GT(spec.unspecifiedCount(), 0);
}

TEST(PartialMachine, ConflictingSpecifyThrows) {
  PartialMachine spec = sampleSpec();
  EXPECT_THROW(spec.specify(0, 0, 2, kNoSymbol), FsmError);  // B vs C
  EXPECT_THROW(spec.specify(0, 1, kNoSymbol, 0), FsmError);  // y vs x
  // Respecifying identical values is fine.
  EXPECT_NO_THROW(spec.specify(0, 0, 1, 0));
}

TEST(PartialMachine, FromCompleteMachineIsComplete) {
  const PartialMachine spec(onesDetector());
  EXPECT_TRUE(spec.isComplete());
  EXPECT_EQ(spec.unspecifiedCount(), 0);
}

TEST(PartialMachine, CompletionsAreCompleteAndHonourSpec) {
  const PartialMachine spec = sampleSpec();
  const Machine selfLoops = spec.completeWithSelfLoops(0);
  EXPECT_TRUE(implementsSpecification(selfLoops, spec));
  Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    const Machine random = spec.completeRandomly(rng);
    EXPECT_TRUE(implementsSpecification(random, spec)) << round;
  }
}

TEST(PartialMachine, ContainmentDetectsViolations) {
  const PartialMachine spec = sampleSpec();
  // A machine that emits the wrong output at (0, A).
  MachineBuilder b("bad");
  b.addInput("0");
  b.addInput("1");
  b.addOutput("x");
  b.addOutput("y");
  b.addState("Z");
  b.setResetState("Z");
  b.addTransition("0", "Z", "Z", "y");  // spec wants x at the reset state
  b.addTransition("1", "Z", "Z", "x");
  EXPECT_FALSE(implementsSpecification(b.build(), spec));
}


}  // namespace
}  // namespace rfsm
