#include "core/difficulty.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/connection.hpp"

namespace rfsm {

int DifficultyProfile::estimatedLength() const {
  if (deltaCount == 0) return 0;
  // Rewrites themselves.
  int estimate = deltaCount;
  // Connections: chainable pairs save a step each (capped at deltas - 1);
  // near-reset sources cost 1; everything else costs ~2 (reset + jump).
  const int chained = std::min(chainablePairs, std::max(0, deltaCount - 1));
  const int near = std::min(sourcesNearReset, deltaCount - chained);
  const int far = deltaCount - chained - near;
  estimate += near + 2 * std::max(0, far);
  // Lead reset + JSR-style tail (repair + final reset) when any temporary
  // was plausibly needed.
  estimate += far > 0 ? 3 : 1;
  return estimate;
}

DifficultyProfile analyzeDifficulty(const MigrationContext& context) {
  DifficultyProfile profile;
  const auto& deltas = context.deltaTransitions();
  profile.deltaCount = static_cast<int>(deltas.size());
  if (deltas.empty()) return profile;

  const std::vector<int> fromReset =
      ConnectionKernel(context).bfs(context.targetReset()).dist;

  double distanceSum = 0;
  int reachable = 0;
  for (const Transition& td : deltas) {
    if (!context.inSourceStates(td.from)) {
      ++profile.structuralSources;
      ++profile.sourcesUnreachable;
      continue;
    }
    const int d = fromReset[static_cast<std::size_t>(td.from)];
    if (d < 0) {
      ++profile.sourcesUnreachable;
    } else {
      ++reachable;
      distanceSum += d;
      if (d <= 1) ++profile.sourcesNearReset;
    }
  }
  profile.meanSourceDistance =
      reachable > 0 ? distanceSum / reachable : 0.0;

  for (const Transition& a : deltas)
    for (const Transition& b : deltas)
      if (&a != &b && a.to == b.from) ++profile.chainablePairs;

  return profile;
}

std::string describeDifficulty(const DifficultyProfile& p) {
  std::ostringstream os;
  os << "|Td| " << p.deltaCount << ", near-reset " << p.sourcesNearReset
     << ", unreachable " << p.sourcesUnreachable << " (structural "
     << p.structuralSources << "), chainable " << p.chainablePairs
     << ", mean source distance " << p.meanSourceDistance << ", estimate "
     << p.estimatedLength();
  return os.str();
}

}  // namespace rfsm
