// Byte pin of every order-decoding planner: one FNV-1a digest over the
// programs (and search statistics) that decodeOrder, the greedy and
// no-temporary planners, planExact, 2-opt, annealing, the best-of-three EA,
// the output-only optimum and the difficulty profile produce on a fixed
// seeded grid.  A change to the connection rule, the BFS walk order, the
// tie-breaks or an rng draw moves the digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <vector>

#include "core/apply.hpp"
#include "core/difficulty.hpp"
#include "core/local_search.hpp"
#include "core/partial.hpp"
#include "core/planners.hpp"
#include "core/program.hpp"
#include "ea/permutation.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rfsm {
namespace {

struct PinShape {
  int states;
  int inputs;
  int deltas;
  int newStates;
};

std::optional<MigrationContext> makeInstance(const PinShape& shape,
                                             std::uint64_t seed) {
  try {
    Rng rng(seed);
    RandomMachineSpec spec;
    spec.stateCount = shape.states;
    spec.inputCount = shape.inputs;
    spec.outputCount = 2;
    const Machine source = randomMachine(spec, rng);
    MutationSpec mutation;
    mutation.deltaCount = shape.deltas;
    mutation.newStateCount = shape.newStates;
    const Machine target = mutateMachine(source, mutation, rng);
    return MigrationContext(source, target);
  } catch (const Error&) {
    return std::nullopt;  // infeasible shape
  }
}

/// Output-only target: `flips` random cells of `source` get another output.
Machine flipOutputs(const Machine& source, int flips, Rng& rng) {
  std::vector<SymbolId> next, out;
  for (SymbolId s = 0; s < source.stateCount(); ++s)
    for (SymbolId i = 0; i < source.inputCount(); ++i) {
      next.push_back(source.next(i, s));
      out.push_back(source.output(i, s));
    }
  std::vector<std::size_t> cells(out.size());
  for (std::size_t k = 0; k < cells.size(); ++k) cells[k] = k;
  rng.shuffle(cells);
  for (int k = 0; k < flips && k < static_cast<int>(cells.size()); ++k) {
    SymbolId& o = out[cells[static_cast<std::size_t>(k)]];
    o = static_cast<SymbolId>((o + 1 + static_cast<SymbolId>(rng.below(
                                           static_cast<std::uint64_t>(
                                               source.outputCount() - 1)))) %
                              source.outputCount());
  }
  return Machine(source.name() + "_recolored", source.inputs(),
                 source.outputs(), source.states(), source.resetState(),
                 std::move(next), std::move(out));
}

class Digest {
 public:
  void program(const MigrationContext& context,
               const ReconfigurationProgram& z) {
    EXPECT_TRUE(validateProgram(context, z).valid);
    hash_ = fnv1a64(programToText(context, z), hash_);
  }
  void number(std::uint64_t value) { hash_ = fnv1a64(value, hash_); }
  void real(double value) { number(std::bit_cast<std::uint64_t>(value)); }
  void text(const char* value) { hash_ = fnv1a64(value, hash_); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnv1a64Basis;
};

constexpr std::uint64_t kPlannerPinDigest = 0xae111d71d3cb2b65ull;

TEST(PlannerPins, EveryOrderDecodingPlannerKeepsItsBytes) {
  const PinShape shapes[] = {
      {4, 2, 0, 0},  {4, 2, 1, 0},  {5, 2, 3, 0}, {6, 3, 5, 1},
      {8, 2, 7, 0},  {9, 3, 9, 2},  {7, 1, 4, 0}, {10, 4, 12, 1},
      {12, 2, 10, 0}, {16, 2, 16, 0},
  };
  const DecodeRule rules[] = {DecodeRule::kPaper, DecodeRule::kBestOfThree};
  Digest digest;
  int tempDeltaCases = 0, newStateCases = 0, emptyCases = 0, singleCases = 0;
  int exactRuns = 0;
  for (const PinShape& shape : shapes) {
    for (std::uint64_t trial = 1; trial <= 3; ++trial) {
      const std::uint64_t seed =
          trial * 7001 + static_cast<std::uint64_t>(
                             shape.states * 1000 + shape.inputs * 100 +
                             shape.deltas * 10 + shape.newStates);
      const std::optional<MigrationContext> context =
          makeInstance(shape, seed);
      if (!context.has_value()) {
        digest.text("infeasible");
        continue;
      }
      newStateCases += shape.newStates > 0;
      const int lastInput = context->targetMachine().inputCount() - 1;
      for (const int temp : {-1, lastInput}) {
        const SymbolId tempInput =
            temp < 0 ? kNoSymbol : context->liftTargetInput(temp);
        const SymbolId i0 =
            temp < 0 ? context->liftTargetInput(0) : tempInput;
        for (const Transition& td : context->deltaTransitions())
          if (td.input == i0 && td.from == context->targetReset())
            ++tempDeltaCases;
        const int n = loopDeltaCount(*context, tempInput);
        emptyCases += n == 0;
        singleCases += n == 1;
        for (const DecodeRule rule : rules) {
          DecodeOptions options;
          options.tempInput = tempInput;
          options.rule = rule;
          digest.program(*context, planGreedy(*context, options));
          Rng rng(seed ^ 0x0de0);
          for (int k = 0; k < 4; ++k)
            digest.program(*context,
                           decodeOrder(*context, randomPermutation(n, rng),
                                       options));
          if (const auto exact = planExact(*context, 6, options)) {
            digest.program(*context, *exact);
            ++exactRuns;
          } else {
            digest.text("exact refused");
          }
        }
        digest.program(*context, planNoTemporary(*context, tempInput));
      }

      for (const DecodeRule rule : rules) {
        DecodeOptions options;
        options.rule = rule;
        const LocalSearchPlan twoOpt =
            planTwoOpt(*context, {}, options, rule == DecodeRule::kPaper
                                                  ? 20000
                                                  : 60);
        digest.program(*context, twoOpt.program);
        digest.number(static_cast<std::uint64_t>(twoOpt.evaluations));
        digest.number(static_cast<std::uint64_t>(twoOpt.improvements));

        AnnealingConfig annealing;
        annealing.moves = 300;
        Rng rng(seed ^ 0xa11e);
        const LocalSearchPlan annealed =
            planAnnealing(*context, annealing, rng, options);
        digest.program(*context, annealed.program);
        digest.number(static_cast<std::uint64_t>(annealed.evaluations));
        digest.number(static_cast<std::uint64_t>(annealed.improvements));
      }

      DecodeOptions bestOfThree;
      bestOfThree.rule = DecodeRule::kBestOfThree;
      EvolutionConfig config;
      config.populationSize = 12;
      config.generations = 8;
      Rng rng(seed ^ 0xea);
      const EvolutionaryPlan plan =
          planEvolutionary(*context, config, rng, bestOfThree);
      digest.program(*context, plan.program);
      digest.number(static_cast<std::uint64_t>(plan.evaluations));
      digest.real(plan.initialBest);
      for (const double best : plan.bestPerGeneration) digest.real(best);

      const DifficultyProfile profile = analyzeDifficulty(*context);
      digest.number(static_cast<std::uint64_t>(profile.deltaCount));
      digest.number(static_cast<std::uint64_t>(profile.sourcesNearReset));
      digest.number(static_cast<std::uint64_t>(profile.sourcesUnreachable));
      digest.number(static_cast<std::uint64_t>(profile.chainablePairs));
      digest.number(static_cast<std::uint64_t>(profile.structuralSources));
      digest.real(profile.meanSourceDistance);
    }
  }

  int outputOnlyRuns = 0;
  for (std::uint64_t trial = 1; trial <= 12; ++trial) {
    Rng rng(trial * 503 + 9);
    RandomMachineSpec spec;
    spec.stateCount = 4 + static_cast<int>(rng.below(6));
    spec.inputCount = 1 + static_cast<int>(rng.below(3));
    spec.outputCount = 3;
    spec.connectedFromReset = trial % 4 != 0;
    const Machine source = randomMachine(spec, rng);
    const int flips = 1 + static_cast<int>(rng.below(8));
    const MigrationContext context(source, flipOutputs(source, flips, rng));
    try {
      if (const auto optimal = planOutputOnlyOptimal(context)) {
        digest.program(context, *optimal);
        ++outputOnlyRuns;
      } else {
        digest.text("output-only refused");
      }
    } catch (const MigrationError&) {
      digest.text("output-only unreachable");
    }
    const DifficultyProfile profile = analyzeDifficulty(context);
    digest.number(static_cast<std::uint64_t>(profile.sourcesNearReset));
    digest.number(static_cast<std::uint64_t>(profile.sourcesUnreachable));
    digest.real(profile.meanSourceDistance);
  }

  // The grid must reach the cases the walk special-cases.
  EXPECT_GT(tempDeltaCases, 0);
  EXPECT_GT(newStateCases, 0);
  EXPECT_GT(emptyCases, 0);
  EXPECT_GT(singleCases, 0);
  EXPECT_GT(exactRuns, 0);
  EXPECT_GT(outputOnlyRuns, 0);
  std::ostringstream hex;
  hex << std::hex << digest.value();
  EXPECT_EQ(digest.value(), kPlannerPinDigest) << "digest 0x" << hex.str();
}

}  // namespace
}  // namespace rfsm
