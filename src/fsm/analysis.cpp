#include "fsm/analysis.hpp"

#include <algorithm>

#include "graph/shortest_path.hpp"

namespace rfsm {

std::vector<SymbolId> reachableStates(const Machine& machine) {
  const BfsResult bfs = bfsFrom(machine.transitionGraph(), machine.resetState());
  // Order states by BFS distance (then id) for a deterministic result.
  std::vector<SymbolId> order;
  for (SymbolId s = 0; s < machine.stateCount(); ++s)
    if (bfs.distance[static_cast<std::size_t>(s)] != kUnreachable)
      order.push_back(s);
  std::stable_sort(order.begin(), order.end(), [&](SymbolId a, SymbolId b) {
    return bfs.distance[static_cast<std::size_t>(a)] <
           bfs.distance[static_cast<std::size_t>(b)];
  });
  return order;
}

std::vector<SymbolId> unreachableStates(const Machine& machine) {
  const BfsResult bfs = bfsFrom(machine.transitionGraph(), machine.resetState());
  std::vector<SymbolId> out;
  for (SymbolId s = 0; s < machine.stateCount(); ++s)
    if (bfs.distance[static_cast<std::size_t>(s)] == kUnreachable)
      out.push_back(s);
  return out;
}

bool isConnectedFromReset(const Machine& machine) {
  return unreachableStates(machine).empty();
}

std::vector<TotalState> stableTotalStates(const Machine& machine) {
  std::vector<TotalState> stable;
  for (SymbolId s = 0; s < machine.stateCount(); ++s)
    for (SymbolId i = 0; i < machine.inputCount(); ++i)
      if (machine.isStableTotalState(i, s)) stable.push_back(TotalState{i, s});
  return stable;
}

}  // namespace rfsm
