#include "ea/evolution.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfsm {
namespace {

struct Individual {
  Permutation genome;
  double fitness = std::numeric_limits<double>::infinity();
};

void crossover(CrossoverOp op, const Permutation& a, const Permutation& b,
               Rng& rng, Permutation& child) {
  switch (op) {
    case CrossoverOp::kOrder: orderCrossover(a, b, rng, child); return;
    case CrossoverOp::kPmx: pmxCrossover(a, b, rng, child); return;
  }
  child = a;
}

void mutate(MutationOp op, Permutation& p, Rng& rng) {
  switch (op) {
    case MutationOp::kSwap: swapMutation(p, rng); break;
    case MutationOp::kInsert: insertMutation(p, rng); break;
    case MutationOp::kInversion: inversionMutation(p, rng); break;
  }
}

/// Index of the tournament winner (lowest fitness) among `size` random picks.
std::size_t tournament(const std::vector<Individual>& population, int size,
                       Rng& rng) {
  std::size_t best = static_cast<std::size_t>(rng.below(population.size()));
  for (int round = 1; round < size; ++round) {
    const std::size_t candidate =
        static_cast<std::size_t>(rng.below(population.size()));
    if (population[candidate].fitness < population[best].fitness)
      best = candidate;
  }
  return best;
}

}  // namespace

EvolutionResult evolvePermutation(int genomeLength, const FitnessFn& fitness,
                                  const EvolutionConfig& config, Rng& rng,
                                  ThreadPool* pool) {
  RFSM_CHECK(genomeLength >= 0, "genome length must be non-negative");
  RFSM_CHECK(config.populationSize >= 2, "population needs >= 2 individuals");
  RFSM_CHECK(config.eliteCount >= 0 &&
                 config.eliteCount < config.populationSize,
             "elite count must be in [0, populationSize)");
  RFSM_CHECK(config.tournamentSize >= 1, "tournament size must be >= 1");

  EvolutionResult result;
  if (genomeLength == 0) {
    result.best = {};
    result.bestFitness = fitness(result.best);
    result.evaluations = 1;
    return result;
  }

  // Evaluates individuals [first, population.size()) in parallel.  Genomes
  // are fixed before this is called, so the rng sequence — and with it the
  // whole run — is independent of the job count.
  auto evaluateFrom = [&](std::vector<Individual>& group, std::size_t first) {
    // Two pointers fit std::function's inline buffer: no allocation.
    Individual* const members = group.data() + first;
    parallelFor(pool, group.size() - first,
                [members, &fitness](std::size_t k) {
                  members[k].fitness = fitness(members[k].genome);
                });
    result.evaluations += static_cast<int>(group.size() - first);
  };

  // Two population buffers, swapped every generation: each genome keeps its
  // capacity, so elites, crossover children and copied parents are written
  // into existing storage and a generation allocates nothing.
  std::vector<Individual> population(
      static_cast<std::size_t>(config.populationSize));
  std::vector<Individual> offspring(population.size());
  for (auto& ind : population)
    ind.genome = randomPermutation(genomeLength, rng);
  for (auto& ind : offspring)
    ind.genome.reserve(static_cast<std::size_t>(genomeLength));
  pollCancel(config.cancel, "ea.initial_population");
  evaluateFrom(population, 0);

  auto byFitness = [](const Individual& a, const Individual& b) {
    return a.fitness < b.fitness;
  };
  std::sort(population.begin(), population.end(), byFitness);
  result.best = population.front().genome;
  result.bestFitness = population.front().fitness;
  {
    // Generation 0: the random initial population, so callers can measure
    // how much the search itself (vs. random sampling) contributes.
    double sum = 0.0;
    for (const auto& ind : population) sum += ind.fitness;
    result.history.push_back(GenerationStats{
        population.front().fitness,
        sum / static_cast<double>(population.size())});
  }

  static metrics::Histogram& generationLatency =
      metrics::histogram(metrics::kGenerationLatency);
  const auto elites = static_cast<std::size_t>(config.eliteCount);
  int stall = 0;  // generations since the last *strict* improvement
  for (int gen = 0; gen < config.generations; ++gen) {
    pollCancel(config.cancel, "ea.generation");
    metrics::ScopedLatency latency(generationLatency);
    trace::ScopedSpan span(
        "ea.generation", "ea",
        {trace::Arg::num("generation", static_cast<std::int64_t>(gen))});
    // Elitism: carry over the best individuals unchanged, with their cached
    // fitness — they are not re-evaluated and do not count as evaluations.
    for (std::size_t e = 0; e < elites; ++e) offspring[e] = population[e];

    // Phase 1 (serial): all stochastic choices of this generation.
    for (std::size_t k = elites; k < offspring.size(); ++k) {
      const auto& parentA = population[tournament(population,
                                                  config.tournamentSize, rng)];
      const auto& parentB = population[tournament(population,
                                                  config.tournamentSize, rng)];
      Permutation& child = offspring[k].genome;
      if (rng.chance(config.crossoverRate)) {
        crossover(config.crossover, parentA.genome, parentB.genome, rng,
                  child);
      } else {
        child = parentA.genome;
      }
      if (rng.chance(config.mutationRate)) mutate(config.mutation, child, rng);
    }
    // Phase 2 (parallel): pure fitness evaluation of the new children.
    evaluateFrom(offspring, elites);

    population.swap(offspring);
    std::sort(population.begin(), population.end(), byFitness);

    double sum = 0.0;
    for (const auto& ind : population) sum += ind.fitness;
    const double mean = sum / static_cast<double>(population.size());
    result.history.push_back(
        GenerationStats{population.front().fitness, mean});
    // Rendering a double is a stream format: only pay it when recording.
    if (span.recording()) {
      span.addArg(trace::Arg::num("best", population.front().fitness));
      span.addArg(trace::Arg::num("mean", mean));
    }

    if (population.front().fitness < result.bestFitness) {
      result.bestFitness = population.front().fitness;
      result.best = population.front().genome;
      stall = 0;
    } else if (++stall >= config.stallLimit && config.stallLimit > 0) {
      break;
    }
  }
  return result;
}

std::string toString(CrossoverOp op) {
  switch (op) {
    case CrossoverOp::kOrder: return "OX";
    case CrossoverOp::kPmx: return "PMX";
  }
  return "?";
}

std::string toString(MutationOp op) {
  switch (op) {
    case MutationOp::kSwap: return "swap";
    case MutationOp::kInsert: return "insert";
    case MutationOp::kInversion: return "inversion";
  }
  return "?";
}

}  // namespace rfsm
