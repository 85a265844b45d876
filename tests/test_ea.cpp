// Tests for the permutation EA framework: operator validity (every child is
// a permutation), determinism, and convergence on known small problems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ea/evolution.hpp"
#include "ea/permutation.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace rfsm {
namespace {

TEST(Permutation, IsPermutationDetectsViolations) {
  EXPECT_TRUE(isPermutation({2, 0, 1}));
  EXPECT_TRUE(isPermutation({}));
  EXPECT_FALSE(isPermutation({0, 0, 1}));
  EXPECT_FALSE(isPermutation({0, 3}));
  EXPECT_FALSE(isPermutation({-1, 0}));
}

TEST(Permutation, RandomPermutationIsValidAndVaries) {
  Rng rng(1);
  const Permutation a = randomPermutation(20, rng);
  const Permutation b = randomPermutation(20, rng);
  EXPECT_TRUE(isPermutation(a));
  EXPECT_TRUE(isPermutation(b));
  EXPECT_NE(a, b);
}

/// Property sweep: variation operators preserve the permutation property
/// across sizes and seeds.
class OperatorPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OperatorPropertyTest, CrossoversProducePermutations) {
  const auto [size, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1000 + size);
  const Permutation a = randomPermutation(size, rng);
  const Permutation b = randomPermutation(size, rng);
  Permutation child;  // reused across rounds, as the EA reuses genomes
  for (int round = 0; round < 10; ++round) {
    orderCrossover(a, b, rng, child);
    EXPECT_TRUE(isPermutation(child));
    pmxCrossover(a, b, rng, child);
    EXPECT_TRUE(isPermutation(child));
  }
}

TEST_P(OperatorPropertyTest, MutationsProducePermutations) {
  const auto [size, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 2000 + size);
  Permutation p = randomPermutation(size, rng);
  for (int round = 0; round < 10; ++round) {
    swapMutation(p, rng);
    EXPECT_TRUE(isPermutation(p));
    insertMutation(p, rng);
    EXPECT_TRUE(isPermutation(p));
    inversionMutation(p, rng);
    EXPECT_TRUE(isPermutation(p));
  }
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, OperatorPropertyTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 9,
                                                              17),
                                            ::testing::Range(0, 5)));

TEST(Crossover, OxKeepsSliceOfFirstParent) {
  // With a fixed rng the slice is deterministic; check the child mixes both
  // parents but stays a permutation (detailed slice content is covered by
  // the property tests).
  Rng rng(7);
  const Permutation a{0, 1, 2, 3, 4, 5};
  const Permutation b{5, 4, 3, 2, 1, 0};
  Permutation child;
  orderCrossover(a, b, rng, child);
  EXPECT_TRUE(isPermutation(child));
  EXPECT_EQ(child.size(), a.size());
}

TEST(Crossover, SingleElementIsIdentity) {
  Rng rng(3);
  const Permutation a{0};
  Permutation child{5, 6};
  orderCrossover(a, a, rng, child);
  EXPECT_EQ(child, a);
  child = {5, 6};
  pmxCrossover(a, a, rng, child);
  EXPECT_EQ(child, a);
}

TEST(Crossover, MismatchedParentsRejected) {
  Rng rng(3);
  const Permutation a{0, 1};
  const Permutation b{0};
  Permutation child;
  EXPECT_THROW(orderCrossover(a, b, rng, child), ContractError);
  EXPECT_THROW(pmxCrossover(a, b, rng, child), ContractError);
}

TEST(Crossover, ChildAliasingAParentRejected) {
  Rng rng(3);
  const Permutation a{0, 1, 2};
  Permutation b{2, 1, 0};
  EXPECT_THROW(orderCrossover(a, b, rng, b), ContractError);
  EXPECT_THROW(pmxCrossover(a, b, rng, b), ContractError);
}

// The operators as they stood before they wrote into a reused child buffer:
// each allocated its child and its marks per call and wrapped the OX write
// index with %.  Kept verbatim as the reference the rewrites must match.
std::pair<std::size_t, std::size_t> referenceSlice(std::size_t n, Rng& rng) {
  std::size_t lo = static_cast<std::size_t>(rng.below(n));
  std::size_t hi = static_cast<std::size_t>(rng.below(n));
  if (lo > hi) std::swap(lo, hi);
  return {lo, hi};
}

Permutation referenceOrderCrossover(const Permutation& a, const Permutation& b,
                                    Rng& rng) {
  const std::size_t n = a.size();
  if (n <= 1) return a;
  auto [lo, hi] = referenceSlice(n, rng);
  Permutation child(n, -1);
  std::vector<bool> used(n, false);
  for (std::size_t k = lo; k <= hi; ++k) {
    child[k] = a[k];
    used[static_cast<std::size_t>(a[k])] = true;
  }
  std::size_t write = (hi + 1) % n;
  for (std::size_t off = 0; off < n; ++off) {
    const int candidate = b[(hi + 1 + off) % n];
    if (used[static_cast<std::size_t>(candidate)]) continue;
    child[write] = candidate;
    used[static_cast<std::size_t>(candidate)] = true;
    write = (write + 1) % n;
  }
  return child;
}

Permutation referencePmxCrossover(const Permutation& a, const Permutation& b,
                                  Rng& rng) {
  const std::size_t n = a.size();
  if (n <= 1) return a;
  auto [lo, hi] = referenceSlice(n, rng);
  Permutation child(n, -1);
  std::vector<int> positionInChildOf(n, -1);
  for (std::size_t k = lo; k <= hi; ++k) {
    child[k] = a[k];
    positionInChildOf[static_cast<std::size_t>(a[k])] = static_cast<int>(k);
  }
  for (std::size_t k = lo; k <= hi; ++k) {
    int value = b[k];
    if (positionInChildOf[static_cast<std::size_t>(value)] != -1) continue;
    std::size_t slot = k;
    while (child[slot] != -1) {
      const int displaced = child[slot];
      slot = static_cast<std::size_t>(
          std::find(b.begin(), b.end(), displaced) - b.begin());
    }
    child[slot] = value;
    positionInChildOf[static_cast<std::size_t>(value)] =
        static_cast<int>(slot);
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (child[k] == -1) child[k] = b[k];
  }
  return child;
}

TEST(Evolution, CrossoversMatchTheReferenceOperatorsAndRngDraws) {
  // Same child and same rng state afterwards (checked through the next
  // draw), for every size 0..64, with the child buffer reused across calls
  // exactly as the EA's offspring buffers are.
  Permutation oxChild, pmxChild;
  for (int n = 0; n <= 64; ++n) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      Rng setup(seed * 131 + static_cast<std::uint64_t>(n));
      const Permutation a = randomPermutation(n, setup);
      const Permutation b = randomPermutation(n, setup);

      Rng ours(seed), reference(seed);
      orderCrossover(a, b, ours, oxChild);
      EXPECT_EQ(oxChild, referenceOrderCrossover(a, b, reference))
          << "OX n " << n << " seed " << seed;
      EXPECT_EQ(ours(), reference()) << "OX n " << n << " seed " << seed;

      pmxCrossover(a, b, ours, pmxChild);
      EXPECT_EQ(pmxChild, referencePmxCrossover(a, b, reference))
          << "PMX n " << n << " seed " << seed;
      EXPECT_EQ(ours(), reference()) << "PMX n " << n << " seed " << seed;
    }
  }
}

/// A simple permutation cost: weighted displacement from identity.  Unique
/// optimum at the identity permutation with cost 0.
double displacementCost(const Permutation& p) {
  double cost = 0;
  for (std::size_t k = 0; k < p.size(); ++k)
    cost += std::abs(static_cast<double>(p[k]) - static_cast<double>(k));
  return cost;
}

TEST(Evolution, FindsIdentityOnDisplacementCost) {
  Rng rng(11);
  EvolutionConfig config;
  config.populationSize = 40;
  config.generations = 200;
  const EvolutionResult result =
      evolvePermutation(8, displacementCost, config, rng);
  EXPECT_EQ(result.bestFitness, 0.0);
  EXPECT_EQ(result.best, (Permutation{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Evolution, DeterministicForSameSeed) {
  EvolutionConfig config;
  config.generations = 30;
  Rng a(5), b(5);
  const auto ra = evolvePermutation(10, displacementCost, config, a);
  const auto rb = evolvePermutation(10, displacementCost, config, b);
  EXPECT_EQ(ra.best, rb.best);
  EXPECT_EQ(ra.bestFitness, rb.bestFitness);
  EXPECT_EQ(ra.evaluations, rb.evaluations);
}

TEST(Evolution, BestFitnessIsMonotoneNonIncreasing) {
  Rng rng(13);
  EvolutionConfig config;
  config.generations = 50;
  const auto result = evolvePermutation(12, displacementCost, config, rng);
  for (std::size_t g = 1; g < result.history.size(); ++g)
    EXPECT_LE(result.history[g].bestFitness,
              result.history[g - 1].bestFitness + 1e-12);
}

TEST(Evolution, HistoryIncludesInitialPopulation) {
  Rng rng(17);
  EvolutionConfig config;
  config.generations = 5;
  const auto result = evolvePermutation(10, displacementCost, config, rng);
  ASSERT_EQ(result.history.size(), 6u);  // gen 0 + 5 generations
  EXPECT_GE(result.history.front().meanFitness,
            result.history.front().bestFitness);
}

TEST(Evolution, StallLimitStopsEarly) {
  Rng rng(19);
  EvolutionConfig config;
  config.generations = 500;
  config.stallLimit = 5;
  const auto result = evolvePermutation(6, displacementCost, config, rng);
  EXPECT_LT(result.history.size(), 500u);
  EXPECT_EQ(result.bestFitness, 0.0);
}

TEST(Evolution, EmptyGenomeHandled) {
  Rng rng(23);
  EvolutionConfig config;
  const auto result = evolvePermutation(0, displacementCost, config, rng);
  EXPECT_TRUE(result.best.empty());
  EXPECT_EQ(result.bestFitness, 0.0);
}

TEST(Evolution, AllOperatorCombinationsRun) {
  for (const auto crossover : {CrossoverOp::kOrder, CrossoverOp::kPmx}) {
    for (const auto mutation :
         {MutationOp::kSwap, MutationOp::kInsert, MutationOp::kInversion}) {
      Rng rng(29);
      EvolutionConfig config;
      config.generations = 20;
      config.crossover = crossover;
      config.mutation = mutation;
      const auto result = evolvePermutation(8, displacementCost, config, rng);
      EXPECT_TRUE(isPermutation(result.best))
          << toString(crossover) << "/" << toString(mutation);
    }
  }
}

TEST(Evolution, EvaluationsMatchActualFitnessCalls) {
  // The documented accounting: initial population + per generation every
  // non-elite offspring; elites keep cached fitness and are not re-counted.
  int calls = 0;
  const FitnessFn counting = [&calls](const Permutation& p) {
    ++calls;
    return displacementCost(p);
  };
  EvolutionConfig config;
  config.populationSize = 20;
  config.generations = 10;
  config.eliteCount = 2;
  Rng rng(41);
  const auto result = evolvePermutation(9, counting, config, rng);
  EXPECT_EQ(result.evaluations, calls);
  EXPECT_EQ(result.evaluations, 20 + 10 * (20 - 2));
}

TEST(Evolution, EvaluationsPinnedForFixedSeedAndConfig) {
  // Regression pin: with no stall the count is a closed form of the config,
  // independent of the seed.
  for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
    Rng rng(seed);
    EvolutionConfig config;
    config.populationSize = 16;
    config.generations = 25;
    config.eliteCount = 4;
    const auto result = evolvePermutation(7, displacementCost, config, rng);
    EXPECT_EQ(result.evaluations, 16 + 25 * (16 - 4)) << "seed " << seed;
  }
}

TEST(Evolution, StallCountsFromLastStrictImprovement) {
  // A constant fitness never strictly improves, so the run stops after
  // exactly stallLimit generations past generation 0.
  const FitnessFn flat = [](const Permutation&) { return 1.0; };
  EvolutionConfig config;
  config.generations = 500;
  config.stallLimit = 7;
  Rng rng(3);
  const auto result = evolvePermutation(6, flat, config, rng);
  EXPECT_EQ(result.history.size(), 1u + 7u);
  EXPECT_EQ(result.evaluations,
            config.populationSize +
                7 * (config.populationSize - config.eliteCount));
}

TEST(Evolution, ParallelFitnessBitIdenticalToSerial) {
  EvolutionConfig config;
  config.generations = 40;
  Rng serialRng(123), pooledRng(123);
  ThreadPool pool(4);
  const auto serial = evolvePermutation(12, displacementCost, config,
                                        serialRng);
  const auto pooled = evolvePermutation(12, displacementCost, config,
                                        pooledRng, &pool);
  EXPECT_EQ(serial.best, pooled.best);
  EXPECT_EQ(serial.bestFitness, pooled.bestFitness);
  EXPECT_EQ(serial.evaluations, pooled.evaluations);
  ASSERT_EQ(serial.history.size(), pooled.history.size());
  for (std::size_t g = 0; g < serial.history.size(); ++g) {
    EXPECT_EQ(serial.history[g].bestFitness, pooled.history[g].bestFitness);
    EXPECT_EQ(serial.history[g].meanFitness, pooled.history[g].meanFitness);
  }
}

TEST(Evolution, TracedGenerationSpansCarryBestAndMean) {
  // The best/mean arguments are formatted only while the span records;
  // a traced run must still get them, for every generation.
  const bool wasEnabled = trace::enabled();
  trace::setCapacity(4096);  // also clears
  trace::setEnabled(true);
  EvolutionConfig config;
  config.populationSize = 12;
  config.generations = 6;
  Rng rng(17);
  const auto result = evolvePermutation(9, displacementCost, config, rng);
  const std::string json = trace::toJson();
  trace::setEnabled(wasEnabled);
  trace::setCapacity(32768);

  auto rendered = [](double value) {
    std::ostringstream os;
    os << value;
    return os.str();
  };
  std::vector<std::string> events;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);)
    if (line.find("\"name\": \"ea.generation\"") != std::string::npos)
      events.push_back(line);
  ASSERT_EQ(events.size(), static_cast<std::size_t>(config.generations));
  ASSERT_EQ(result.history.size(), events.size() + 1);
  for (std::size_t g = 0; g < events.size(); ++g) {
    const GenerationStats& stats = result.history[g + 1];
    EXPECT_NE(events[g].find("\"generation\": " + std::to_string(g)),
              std::string::npos)
        << events[g];
    EXPECT_NE(events[g].find("\"best\": " + rendered(stats.bestFitness)),
              std::string::npos)
        << events[g];
    EXPECT_NE(events[g].find("\"mean\": " + rendered(stats.meanFitness)),
              std::string::npos)
        << events[g];
  }
}

TEST(Evolution, RejectsBadConfig) {
  Rng rng(1);
  EvolutionConfig config;
  config.populationSize = 1;
  EXPECT_THROW(evolvePermutation(4, displacementCost, config, rng),
               ContractError);
  config = EvolutionConfig{};
  config.eliteCount = config.populationSize;
  EXPECT_THROW(evolvePermutation(4, displacementCost, config, rng),
               ContractError);
}

}  // namespace
}  // namespace rfsm
