#include "core/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ea/permutation.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"

namespace rfsm {

LocalSearchPlan planTwoOpt(const MigrationContext& context,
                           const std::vector<int>& seed,
                           const DecodeOptions& options,
                           int maxEvaluations) {
  metrics::ScopedTimer timing(metrics::timer("planner.2opt"));
  static metrics::Counter& decodeCalls =
      metrics::counter(metrics::kDecodeCalls);
  const int n = loopDeltaCount(context, options.tempInput);
  std::vector<int> order = seed;
  if (order.empty()) {
    order.resize(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
  }
  RFSM_CHECK(static_cast<int>(order.size()) == n,
             "2-opt seed must cover all loop deltas");
  RFSM_CHECK(isPermutation(order), "2-opt seed must be a permutation");

  const ConnectionKernel kernel(context, options);
  LocalSearchPlan plan;
  int length = kernel.cost(order);
  ++plan.evaluations;

  bool improved = true;
  while (improved && plan.evaluations < maxEvaluations) {
    improved = false;
    for (std::size_t i = 0;
         i + 1 < order.size() && !improved && plan.evaluations < maxEvaluations;
         ++i) {
      for (std::size_t j = i + 1;
           j < order.size() && !improved && plan.evaluations < maxEvaluations;
           ++j) {
        std::reverse(order.begin() + static_cast<std::ptrdiff_t>(i),
                     order.begin() + static_cast<std::ptrdiff_t>(j) + 1);
        const int candidate = kernel.cost(order);
        ++plan.evaluations;
        if (candidate < length) {
          length = candidate;
          ++plan.improvements;
          improved = true;  // first improvement: restart scan
        } else {
          std::reverse(order.begin() + static_cast<std::ptrdiff_t>(i),
                       order.begin() + static_cast<std::ptrdiff_t>(j) + 1);
        }
        if (plan.evaluations >= maxEvaluations) break;
      }
    }
  }
  // Every scored order stands in for a decode; only the winner is decoded.
  decodeCalls.add(static_cast<std::uint64_t>(plan.evaluations));
  plan.program = decodeOrder(context, order, options);
  return plan;
}

LocalSearchPlan planAnnealing(const MigrationContext& context,
                              const AnnealingConfig& config, Rng& rng,
                              const DecodeOptions& options) {
  metrics::ScopedTimer timing(metrics::timer("planner.anneal"));
  static metrics::Counter& decodeCalls =
      metrics::counter(metrics::kDecodeCalls);
  const int n = loopDeltaCount(context, options.tempInput);
  const ConnectionKernel kernel(context, options);
  LocalSearchPlan plan;
  std::vector<int> current = randomPermutation(n, rng);
  int currentLength = kernel.cost(current);
  ++plan.evaluations;
  std::vector<int> best = current;
  int bestLength = currentLength;

  // One candidate buffer for the whole run: a move overwrites it with the
  // current order and mutates it, acceptance swaps the two buffers.
  std::vector<int> candidate;
  double temperature = config.initialTemperature;
  for (int move = 0; move < config.moves && n >= 2; ++move) {
    candidate.assign(current.begin(), current.end());
    swapMutation(candidate, rng);
    const int candidateLength = kernel.cost(candidate);
    ++plan.evaluations;
    const int delta = candidateLength - currentLength;
    if (delta <= 0 ||
        rng.uniform() < std::exp(-static_cast<double>(delta) / temperature)) {
      std::swap(current, candidate);
      currentLength = candidateLength;
      if (currentLength < bestLength) {
        bestLength = currentLength;
        best = current;
        ++plan.improvements;
      }
    }
    temperature *= config.coolingRate;
  }
  // Every scored order stands in for a decode; the winner's decode counts
  // itself and, as before, one evaluation.
  decodeCalls.add(static_cast<std::uint64_t>(plan.evaluations));
  plan.program = decodeOrder(context, best, options);
  ++plan.evaluations;
  return plan;
}

}  // namespace rfsm
