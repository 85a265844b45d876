#include "util/fault.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rfsm::fault {

FaultInjector::FaultInjector(std::uint64_t seed) : rng_(seed) {}

FaultScenario FaultInjector::draw(const FaultModel& model,
                                  const FaultGeometry& geometry) {
  RFSM_CHECK(geometry.cellCount > 0, "fault geometry needs at least one cell");
  RFSM_CHECK(geometry.bitsPerCell > 0, "fault geometry needs a cell width");
  RFSM_CHECK(geometry.programLength >= 0, "negative program length");

  FaultScenario scenario;
  if (geometry.programLength > 0 && rng_.chance(model.abortProbability))
    scenario.abortAtStep = static_cast<int>(
        rng_.below(static_cast<std::uint64_t>(geometry.programLength)));

  // Flips land while the power is still on: in [0, lastStep], where
  // lastStep is the abort point (exclusive of the unexecuted tail) or the
  // program end (== programLength means "after completion").
  const int lastStep = scenario.abortAtStep.has_value()
                           ? *scenario.abortAtStep
                           : geometry.programLength;
  for (int slot = 0; slot < model.maxFlips; ++slot) {
    if (!rng_.chance(model.flipProbability)) continue;
    CellFault flip;
    const bool sticky = !geometry.stickyCells.empty() &&
                        rng_.chance(model.stickyProbability);
    if (sticky) {
      flip.cell = geometry.stickyCells[rng_.pickIndex(geometry.stickyCells)];
      flip.sticky = true;
    } else {
      flip.cell = static_cast<std::size_t>(
          rng_.below(static_cast<std::uint64_t>(geometry.cellCount)));
    }
    flip.bit = static_cast<int>(
        rng_.below(static_cast<std::uint64_t>(geometry.bitsPerCell)));
    flip.atStep = static_cast<int>(
        rng_.below(static_cast<std::uint64_t>(lastStep) + 1));
    scenario.flips.push_back(flip);
  }
  // Execution consumes flips in schedule order.
  std::stable_sort(scenario.flips.begin(), scenario.flips.end(),
                   [](const CellFault& a, const CellFault& b) {
                     return a.atStep < b.atStep;
                   });
  return scenario;
}

std::optional<FaultModel> modelByName(const std::string& name) {
  FaultModel model;
  if (name == "clean") {
    model.abortProbability = 0.0;
    model.flipProbability = 0.0;
    model.maxFlips = 0;
    return model;
  }
  if (name == "default") return model;
  if (name == "flip-storm") {
    model.abortProbability = 0.0;
    model.flipProbability = 1.0;
    model.maxFlips = 4;
    return model;
  }
  if (name == "abort-heavy") {
    model.abortProbability = 0.9;
    model.flipProbability = 0.1;
    model.maxFlips = 1;
    return model;
  }
  if (name == "stuck-at") {
    model.abortProbability = 0.1;
    model.flipProbability = 1.0;
    model.maxFlips = 2;
    model.stickyProbability = 0.9;
    return model;
  }
  return std::nullopt;
}

const std::vector<std::string>& modelNames() {
  static const std::vector<std::string> names = {
      "clean", "default", "flip-storm", "abort-heavy", "stuck-at"};
  return names;
}

std::optional<ServiceScenario> serviceScenarioByName(const std::string& name) {
  ServiceScenario scenario;
  scenario.name = name;
  if (name == "none") return scenario;
  if (name == "kill-first-shard") {
    scenario.kind = ServiceScenario::Kind::kKillWorker;
    return scenario;
  }
  if (name == "abort-mid-shard") {
    scenario.kind = ServiceScenario::Kind::kAbortWorker;
    return scenario;
  }
  if (name == "hang-worker") {
    scenario.kind = ServiceScenario::Kind::kHangWorker;
    return scenario;
  }
  if (name == "pool-unhealthy") {
    scenario.kind = ServiceScenario::Kind::kUnhealthy;
    return scenario;
  }
  return std::nullopt;
}

const std::vector<std::string>& serviceScenarioNames() {
  static const std::vector<std::string> names = {
      "none", "kill-first-shard", "abort-mid-shard", "hang-worker",
      "pool-unhealthy"};
  return names;
}

}  // namespace rfsm::fault
