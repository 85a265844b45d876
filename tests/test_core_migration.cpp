// Tests for the migration model: superset alphabets, delta transitions
// (Def. 4.2, validated against the paper's Example 4.1), MutableMachine
// cycle semantics, the Table 1 reconfiguration sequence of Example 2.1, and
// program <-> sequence round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/apply.hpp"
#include "core/connection.hpp"
#include "core/migration.hpp"
#include "core/mutable_machine.hpp"
#include "core/program.hpp"
#include "core/sequence.hpp"
#include "fsm/equivalence.hpp"
#include "fsm/simulate.hpp"
#include "gen/families.hpp"

namespace rfsm {
namespace {

/// Renders a transition via context symbol names for set comparisons.
std::string key(const MigrationContext& c, const Transition& t) {
  return c.inputs().name(t.input) + "," + c.states().name(t.from) + "," +
         c.states().name(t.to) + "," + c.outputs().name(t.output);
}

TEST(MigrationContext, SupersetAlphabetsOfExample41) {
  const MigrationContext context(example41Source(), example41Target());
  EXPECT_EQ(context.states().size(), 4);  // S0..S3
  EXPECT_EQ(context.inputs().size(), 2);
  EXPECT_EQ(context.outputs().size(), 2);
  EXPECT_TRUE(context.inSourceStates(context.states().at("S2")));
  EXPECT_FALSE(context.inSourceStates(context.states().at("S3")));
  EXPECT_TRUE(context.inTargetStates(context.states().at("S3")));
  EXPECT_EQ(context.sourceReset(), context.states().at("S0"));
  EXPECT_EQ(context.targetReset(), context.states().at("S0"));
}

TEST(MigrationContext, DeltaTransitionsMatchPaperExample41) {
  // Example 4.1: Td = {(0,S1,S0,0), (1,S2,S3,0), (1,S3,S3,1), (0,S3,S0,0)}.
  const MigrationContext context(example41Source(), example41Target());
  std::set<std::string> got;
  for (const Transition& t : context.deltaTransitions())
    got.insert(key(context, t));
  const std::set<std::string> expected{"0,S1,S0,0", "1,S2,S3,0", "1,S3,S3,1",
                                       "0,S3,S0,0"};
  EXPECT_EQ(got, expected);
  EXPECT_EQ(context.deltaCount(), 4);
}

TEST(MigrationContext, DeltaTransitionsOfExample42IsSingleton) {
  const MigrationContext context(example42Source(), example42Target());
  ASSERT_EQ(context.deltaCount(), 1);
  EXPECT_EQ(key(context, context.deltaTransitions()[0]), "0,S3,S0,0");
}

TEST(MigrationContext, IdenticalMachinesHaveNoDeltas) {
  const MigrationContext context(onesDetector(), onesDetector());
  EXPECT_EQ(context.deltaCount(), 0);
}

TEST(MigrationContext, OnesToZerosHasTwoDeltas) {
  // Table 1 rewrites four cells but only two change value: G(1,S1) 1->0 and
  // G(0,S0) 0->1.
  const MigrationContext context(onesDetector(), zerosDetector());
  std::set<std::string> got;
  for (const Transition& t : context.deltaTransitions())
    got.insert(key(context, t));
  EXPECT_EQ(got, (std::set<std::string>{"1,S1,S1,0", "0,S0,S0,1"}));
}

TEST(MigrationContext, TargetTransitionsCoverWholeDomain) {
  const MigrationContext context(example41Source(), example41Target());
  EXPECT_EQ(context.targetTransitions().size(),
            static_cast<std::size_t>(4 * 2));
}

TEST(MigrationContext, SourceTablesLiftedCorrectly) {
  const Machine m = example41Source();
  const MigrationContext context(m, example41Target());
  for (SymbolId s = 0; s < m.stateCount(); ++s)
    for (SymbolId i = 0; i < m.inputCount(); ++i) {
      const SymbolId ls = context.liftSourceState(s);
      const SymbolId li = context.liftSourceInput(i);
      EXPECT_EQ(context.sourceNext(li, ls),
                context.liftSourceState(m.next(i, s)));
    }
}

TEST(MutableMachine, StartsAsSourceInResetState) {
  const MigrationContext context(example41Source(), example41Target());
  const MutableMachine machine(context);
  EXPECT_EQ(machine.state(), context.sourceReset());
  // Source cells specified, new-state cells not.
  EXPECT_TRUE(machine.isSpecified(context.inputs().at("0"),
                                  context.states().at("S1")));
  EXPECT_FALSE(machine.isSpecified(context.inputs().at("0"),
                                   context.states().at("S3")));
}

TEST(MutableMachine, TraverseFollowsTables) {
  const MigrationContext context(onesDetector(), zerosDetector());
  MutableMachine machine(context);
  const SymbolId out =
      machine.applyStep(ReconfigStep::traverse(context.inputs().at("1")));
  EXPECT_EQ(context.outputs().name(out), "0");
  EXPECT_EQ(context.states().name(machine.state()), "S1");
}

TEST(MutableMachine, TraverseUnspecifiedCellThrows) {
  const MigrationContext context(example41Source(), example41Target());
  MutableMachine machine(context);
  // Jump to S3 via a rewrite, then try to traverse its unwritten 0-cell.
  machine.applyStep(ReconfigStep::rewrite(context.inputs().at("1"),
                                          context.states().at("S3"),
                                          context.outputs().at("0")));
  EXPECT_EQ(context.states().name(machine.state()), "S3");
  EXPECT_THROW(
      machine.applyStep(ReconfigStep::traverse(context.inputs().at("0"))),
      MigrationError);
}

TEST(MutableMachine, RewriteTakesNewTransitionSameCycle) {
  const MigrationContext context(example42Source(), example42Target());
  MutableMachine machine(context);
  // Temporary transition (0, S0) -> S3 (Sec. 4.3, Fig. 8).
  const SymbolId out = machine.applyStep(
      ReconfigStep::rewrite(context.inputs().at("0"),
                            context.states().at("S3"),
                            context.outputs().at("0"), true));
  EXPECT_EQ(context.states().name(machine.state()), "S3");
  EXPECT_EQ(context.outputs().name(out), "0");
  // The cell now holds the temporary value.
  EXPECT_EQ(machine.next(context.inputs().at("0"), context.states().at("S0")),
            context.states().at("S3"));
}

TEST(MutableMachine, ResetForcesTerminalState) {
  const MigrationContext context(example42Source(), example42Target());
  MutableMachine machine(context);
  machine.applyStep(ReconfigStep::traverse(context.inputs().at("1")));
  EXPECT_NE(machine.state(), context.targetReset());
  machine.applyStep(ReconfigStep::reset());
  EXPECT_EQ(machine.state(), context.targetReset());
}

// The planners' table queries run on ConnectionKernel's BFS over M's table;
// the edges it reports are checked against MutableMachine's cells.
TEST(MutableMachine, EdgeInputAndDistances) {
  const MigrationContext context(example42Source(), example42Target());
  const MutableMachine machine(context);
  const ConnectionKernel kernel(context);
  const SymbolId s0 = context.states().at("S0");
  const SymbolId s1 = context.states().at("S1");
  const SymbolId s3 = context.states().at("S3");
  // An edge is a one-step tree path; the BFS scans inputs in ascending
  // order, so the tree takes the lowest input selecting it.
  const BfsTree tree = kernel.bfs(s0);
  ASSERT_EQ(tree.dist[static_cast<std::size_t>(s1)], 1);
  const SymbolId input = tree.prevInput[static_cast<std::size_t>(s1)];
  EXPECT_EQ(context.inputs().name(input), "1");
  EXPECT_EQ(machine.next(input, s0), s1);
  EXPECT_NE(tree.dist[static_cast<std::size_t>(s3)], 1);  // no edge to S3
  EXPECT_EQ(tree.dist[static_cast<std::size_t>(s3)], 3);
}

TEST(MutableMachine, PathInputsReconstructsRing) {
  const MigrationContext context(example42Source(), example42Target());
  const MutableMachine machine(context);
  const ConnectionKernel kernel(context);
  const SymbolId s0 = context.states().at("S0");
  const SymbolId s3 = context.states().at("S3");
  const std::vector<SymbolId> path = kernel.bfs(s0).walkTo(s3);
  ASSERT_EQ(path.size(), 3u);
  SymbolId here = s0;
  for (const SymbolId i : path) {
    EXPECT_EQ(context.inputs().name(i), "1");
    here = machine.next(i, here);
  }
  EXPECT_EQ(here, s3);
  const SymbolId s2 = context.states().at("S2");
  EXPECT_TRUE(kernel.bfs(s2).walkTo(s2).empty());
}

// ---------------------------------------------------------------------------
// Example 2.1 / Table 1: the canonical ones -> zeros reconfiguration.
// ---------------------------------------------------------------------------

/// Builds the paper's Table 1 program: four rewrite cycles r1..r4.
ReconfigurationProgram table1Program(const MigrationContext& c) {
  const SymbolId in0 = c.inputs().at("0");
  const SymbolId in1 = c.inputs().at("1");
  const SymbolId s0 = c.states().at("S0");
  const SymbolId s1 = c.states().at("S1");
  const SymbolId o0 = c.outputs().at("0");
  const SymbolId o1 = c.outputs().at("1");
  ReconfigurationProgram z;
  z.steps.push_back(ReconfigStep::rewrite(in1, s1, o0));  // r1: (1,S0):=S1/0
  z.steps.push_back(ReconfigStep::rewrite(in1, s1, o0));  // r2: (1,S1):=S1/0
  z.steps.push_back(ReconfigStep::rewrite(in0, s0, o0));  // r3: (0,S1):=S0/0
  z.steps.push_back(ReconfigStep::rewrite(in0, s0, o1));  // r4: (0,S0):=S0/1
  return z;
}

TEST(Table1, FourCycleSequenceReconfiguresOnesIntoZeros) {
  const MigrationContext context(onesDetector(), zerosDetector());
  const ReconfigurationProgram z = table1Program(context);
  EXPECT_EQ(z.length(), 4);  // "a reconfiguration sequence taking four
                             // clock cycles" (Fig. 4)
  const ValidationResult result = validateProgram(context, z);
  EXPECT_TRUE(result.valid) << result.reason;
  // The realized machine behaves like the zeros detector.
  MutableMachine machine = replayProgram(context, z);
  EXPECT_TRUE(machine.matchesTarget());
}

TEST(Table1, IntermediateStatesFollowFig4) {
  const MigrationContext context(onesDetector(), zerosDetector());
  MutableMachine machine(context);
  const ReconfigurationProgram z = table1Program(context);
  // S0 -r1-> S1 -r2-> S1 -r3-> S0 -r4-> S0.
  const char* expected[] = {"S1", "S1", "S0", "S0"};
  for (int k = 0; k < 4; ++k) {
    machine.applyStep(z.steps[static_cast<std::size_t>(k)]);
    EXPECT_EQ(context.states().name(machine.state()), expected[k])
        << "after r" << (k + 1);
  }
}

TEST(Sequence, ProgramSequenceRoundTrip) {
  const MigrationContext context(onesDetector(), zerosDetector());
  ReconfigurationProgram z = table1Program(context);
  z.steps.push_back(ReconfigStep::reset());
  z.steps.push_back(ReconfigStep::traverse(context.inputs().at("0")));
  const ReconfigurationSequence seq = sequenceFromProgram(z);
  EXPECT_EQ(seq.length(), z.length());
  const ReconfigurationProgram back = programFromSequence(seq);
  ASSERT_EQ(back.steps.size(), z.steps.size());
  for (std::size_t k = 0; k < z.steps.size(); ++k) {
    EXPECT_EQ(back.steps[k].kind, z.steps[k].kind);
    EXPECT_EQ(back.steps[k].input, z.steps[k].input);
    EXPECT_EQ(back.steps[k].nextState, z.steps[k].nextState);
    EXPECT_EQ(back.steps[k].output, z.steps[k].output);
  }
}

TEST(Sequence, MarkdownRenderingMatchesTable1Shape) {
  const MigrationContext context(onesDetector(), zerosDetector());
  const std::string md =
      sequenceToMarkdown(context, sequenceFromProgram(table1Program(context)));
  EXPECT_NE(md.find("H_f(r)"), std::string::npos);
  EXPECT_NE(md.find("| r1 "), std::string::npos);
  EXPECT_NE(md.find("| r4 "), std::string::npos);
  EXPECT_NE(md.find(" S1 "), std::string::npos);
}

TEST(Program, CountersDistinguishStepKinds) {
  const MigrationContext context(onesDetector(), zerosDetector());
  ReconfigurationProgram z = table1Program(context);
  z.steps.push_back(ReconfigStep::reset());
  z.steps.push_back(ReconfigStep::traverse(0));
  z.steps.push_back(ReconfigStep::rewrite(0, 0, 0, true));
  EXPECT_EQ(z.resetCount(), 1);
  EXPECT_EQ(z.traverseCount(), 1);
  EXPECT_EQ(z.rewriteCount(), 5);
  EXPECT_EQ(z.temporaryCount(), 1);
}

TEST(Validate, RejectsIncompletePrograms) {
  const MigrationContext context(onesDetector(), zerosDetector());
  ReconfigurationProgram z = table1Program(context);
  z.steps.pop_back();  // drop r4: cell (0, S0) keeps its old output
  const ValidationResult result = validateProgram(context, z);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.reason.find("M'"), std::string::npos);
}

TEST(Validate, RejectsWrongTerminalState) {
  const MigrationContext context(onesDetector(), zerosDetector());
  ReconfigurationProgram z = table1Program(context);
  // Extra traverse under input 1 leaves the machine in S1, not S0.
  z.steps.push_back(ReconfigStep::traverse(context.inputs().at("1")));
  const ValidationResult result = validateProgram(context, z);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.reason.find("terminates"), std::string::npos);
}

TEST(Validate, RejectsUnexecutablePrograms) {
  const MigrationContext context(example41Source(), example41Target());
  ReconfigurationProgram z;
  // Jump to the fresh state S3, then traverse its unwritten 0-cell.
  z.steps.push_back(ReconfigStep::rewrite(context.inputs().at("1"),
                                          context.states().at("S3"),
                                          context.outputs().at("0")));
  z.steps.push_back(ReconfigStep::traverse(context.inputs().at("0")));
  const ValidationResult result = validateProgram(context, z);
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.reason.find("not executable"), std::string::npos);
  EXPECT_EQ(result.cyclesExecuted, 1);
}

TEST(Validate, ZerosDetectorBehavesAsReconfigured) {
  // End-to-end: after Table 1, running the realized machine on a bit
  // stream matches zerosDetector() exactly (behavioural equivalence).
  EXPECT_TRUE(areEquivalent(zerosDetector(), zerosDetector()));
  const MigrationContext context(onesDetector(), zerosDetector());
  MutableMachine machine = replayProgram(context, table1Program(context));
  // Drive both from reset over all words of length 6.
  const SymbolId in[2] = {context.inputs().at("0"), context.inputs().at("1")};
  const Machine target = zerosDetector();
  for (int word = 0; word < (1 << 6); ++word) {
    MutableMachine hw = machine;  // copy retains RAM; reset the state
    hw.applyStep(ReconfigStep::reset());
    Simulator golden(target);
    for (int bit = 0; bit < 6; ++bit) {
      const int b = (word >> bit) & 1;
      const SymbolId hwOut = hw.stepNormal(in[b]);
      const SymbolId refOut =
          golden.step(target.inputs().at(b ? "1" : "0"));
      EXPECT_EQ(context.outputs().name(hwOut), target.outputs().name(refOut));
    }
  }
}

}  // namespace
}  // namespace rfsm
