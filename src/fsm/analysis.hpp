// Structural analyses of Machines.
//
// The migration algorithms need reachability facts (can every delta source
// be reached?) and the paper's notions of stable total states and
// resetability.
#pragma once

#include <vector>

#include "fsm/machine.hpp"

namespace rfsm {

/// States reachable from reset, in BFS order.
std::vector<SymbolId> reachableStates(const Machine& machine);

/// States unreachable from reset.
std::vector<SymbolId> unreachableStates(const Machine& machine);

/// True when every state is reachable from the reset state.
bool isConnectedFromReset(const Machine& machine);

/// All stable total states (i, s) with F(i, s) = s.
std::vector<TotalState> stableTotalStates(const Machine& machine);

}  // namespace rfsm
