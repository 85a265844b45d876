// The machine-under-reconfiguration: writable F/G tables over superset
// alphabets plus a current state.
//
// This is the software twin of the Fig. 5 datapath: F-RAM / G-RAM contents
// (with a "specified" bit per cell — freshly added states' cells hold
// garbage until written, exactly like uninitialized block RAM), the state
// register, and the three ways a clock cycle can advance it (reset,
// traverse, rewrite).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/migration.hpp"
#include "core/program.hpp"
#include "util/check.hpp"

namespace rfsm {

/// Thrown when a program step is physically impossible (traversing an
/// unwritten RAM cell, malformed step payloads).
class MigrationError : public Error {
 public:
  explicit MigrationError(const std::string& what) : Error(what) {}
};

/// Mutable machine over the superset alphabets of a MigrationContext.
/// Holds a reference to the context; the context must outlive it.
class MutableMachine {
 public:
  /// Starts as a copy of the source machine M, in M's reset state.  Cells
  /// outside M's (input, state) domain are unspecified.
  explicit MutableMachine(const MigrationContext& context);

  const MigrationContext& context() const { return context_; }

  /// Current state (superset id).
  SymbolId state() const { return state_; }

  /// True when RAM cell (input, state) has defined contents.
  bool isSpecified(SymbolId input, SymbolId state) const;

  /// F(input, state); requires the cell to be specified.
  SymbolId next(SymbolId input, SymbolId state) const;

  /// G(input, state); requires the cell to be specified.
  SymbolId output(SymbolId input, SymbolId state) const;

  /// Executes one step (one clock cycle).  Returns the output emitted this
  /// cycle (kNoSymbol for reset cycles, whose output is unspecified).
  /// Throws MigrationError when a Traverse hits an unspecified cell.
  SymbolId applyStep(const ReconfigStep& step);

  /// Runs a whole program.
  void applyProgram(const ReconfigurationProgram& program);

  /// Normal-mode step (the H_i(i, r0) = i path): consume an external input.
  SymbolId stepNormal(SymbolId input);

  /// Configuration back door (the FPGA readback/writeback port): writes a
  /// cell without traversing it and without moving the machine.  Used for
  /// fault injection and golden-image loading; reconfiguration programs
  /// must use Rewrite steps instead.
  void loadCell(SymbolId input, SymbolId state, SymbolId nextState,
                SymbolId output);

  /// Marks a cell unspecified (deactivates a damaged cell).  Reads of the
  /// cell fail afterwards, exactly like a freshly allocated RAM row.
  void clearCell(SymbolId input, SymbolId state);

  // --- Fault model ------------------------------------------------------
  //
  // The F/G tables live in block RAM, which takes SEU bit flips in the
  // field.  corruptBit() is the SEU back door: unlike loadCell it does NOT
  // refresh the per-cell integrity checksum, so the damage is *silent* at
  // the RAM level and must be found by integrityScan().  The checksum is a
  // bijective 64-bit mix of the packed (next, output) word, so any
  // corruption of a specified cell's contents is detected — there are no
  // collisions to get lucky with.

  /// Bits of the stored cell word the fault model may flip: the state-code
  /// width (low bits, F entry) followed by the output-code width (G entry).
  int faultBitsPerCell() const { return stateBits_ + outputBits_; }

  /// Flips one bit of cell (input, state): bit < stateBits flips the F
  /// entry, higher bits flip the G entry.  Does not touch the specified
  /// flag or the checksum.  Bumps the table version (verifiers keyed on it
  /// must see the stored words change; the *checksum* is what stays
  /// silently stale, as in hardware).
  void corruptBit(SymbolId input, SymbolId state, int bit);

  /// Cells whose stored words no longer match their integrity checksum
  /// (unspecified cells are skipped — they are never readable).  Ordered by
  /// (state, input).
  std::vector<TotalState> integrityScan() const;

  /// Monotonic counter bumped on every table write; lets verifiers skip
  /// re-checking an unchanged table.
  std::uint64_t tableVersion() const { return tableVersion_; }

  // --- Checkpoint / rollback -------------------------------------------

  /// A full copy of the table contents (the golden image a recovery can
  /// roll back to).
  struct TableImage {
    std::vector<SymbolId> next, out;
    std::vector<char> specified;
    std::vector<std::uint64_t> integrity;
    SymbolId state = kNoSymbol;
  };

  TableImage checkpoint() const;
  /// Restores a checkpoint taken from this machine; bumps the version.
  void restore(const TableImage& image);

  /// True when the machine realizes the *source* machine M on the whole
  /// source domain (the clean-rollback criterion).  On mismatch fills
  /// `reason` (when non-null).
  bool matchesSource(std::string* reason = nullptr) const;

  /// True when the machine now realizes M': every (i', s') cell of the
  /// target domain is specified and matches F'/G'.  On mismatch, fills
  /// `reason` (when non-null) with the first offending cell.
  bool matchesTarget(std::string* reason = nullptr) const;

  /// Extracts the realized target machine (target alphabets, original
  /// target ids).  Requires matchesTarget().
  Machine extractTarget() const;

 private:
  std::size_t cell(SymbolId input, SymbolId state) const;

  /// Refreshes the integrity checksum of cell `c` (authorized writes only).
  void reseal(std::size_t c);

  const MigrationContext& context_;
  std::vector<SymbolId> next_, out_;
  std::vector<char> specified_;
  /// Per-cell checksum of (next_, out_), maintained by authorized writes.
  std::vector<std::uint64_t> integrity_;
  int stateBits_ = 1, outputBits_ = 1;
  SymbolId state_;
  /// Bumped on every table write.
  std::uint64_t tableVersion_ = 1;
};

}  // namespace rfsm
