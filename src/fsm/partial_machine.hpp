// Incompletely specified Mealy machines (the general class of Def. 2.1
// before the paper restricts to completely specified ones).
//
// A PartialMachine may leave the next state and/or the output of a cell
// unspecified ('don't care').  Real controller specifications arrive in
// this form (KISS2 benchmarks routinely leave cells open); this module
// stores them faithfully, checks containment of behaviours, and lifts them
// into the completely specified class the migration machinery works on.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fsm/machine.hpp"
#include "util/rng.hpp"

namespace rfsm {

/// Deterministic, possibly incompletely specified Mealy machine.
class PartialMachine {
 public:
  /// Starts with the given alphabets; all cells unspecified.
  PartialMachine(std::string name, SymbolTable inputs, SymbolTable outputs,
                 SymbolTable states, SymbolId resetState);

  /// Builds from a complete Machine (every cell specified).
  explicit PartialMachine(const Machine& machine);

  const std::string& name() const { return name_; }
  const SymbolTable& inputs() const { return inputs_; }
  const SymbolTable& outputs() const { return outputs_; }
  const SymbolTable& states() const { return states_; }
  SymbolId resetState() const { return resetState_; }

  /// Specifies a cell; next/output may each be kNoSymbol (don't care).
  /// Re-specifying with a conflicting value throws FsmError (determinism).
  void specify(SymbolId input, SymbolId from, SymbolId to, SymbolId output);

  /// Next state of cell (kNoSymbol = unspecified).
  SymbolId next(SymbolId input, SymbolId state) const;
  /// Output of cell (kNoSymbol = don't care).
  SymbolId output(SymbolId input, SymbolId state) const;

  bool isNextSpecified(SymbolId input, SymbolId state) const {
    return next(input, state) != kNoSymbol;
  }
  bool isOutputSpecified(SymbolId input, SymbolId state) const {
    return output(input, state) != kNoSymbol;
  }

  /// Number of cells with an unspecified next state or output.
  int unspecifiedCount() const;

  /// True when every cell is fully specified.
  bool isComplete() const { return unspecifiedCount() == 0; }

  /// Lifts to a completely specified Machine: unspecified next states
  /// become self-loops and don't-care outputs become `defaultOutput`.
  Machine completeWithSelfLoops(SymbolId defaultOutput) const;

  /// Lifts by drawing every free choice uniformly at random (useful for
  /// property tests: every completion must cover the specification).
  Machine completeRandomly(Rng& rng) const;

 private:
  std::size_t cell(SymbolId input, SymbolId state) const;

  std::string name_;
  SymbolTable inputs_, outputs_, states_;
  SymbolId resetState_;
  std::vector<SymbolId> next_, out_;
};

/// True when `implementation` (complete) realizes `specification`: started
/// from reset, for every input word, wherever the specification's output is
/// defined along the specified path, the implementation emits it.  This is
/// the classic ISFSM containment relation, decided by a product BFS.
bool implementsSpecification(const Machine& implementation,
                             const PartialMachine& specification);

}  // namespace rfsm
