// The paper's connection rule on a flat next-state table (Sec. 4.6).
//
// Every order-decoding planner applies one rule to one table: rewrite the
// deltas in a given order and, before each, connect the current state to
// the delta's source by an existing path, or else by reset plus a temporary
// transition in the cell (i0, S0').  ConnectionKernel owns that table and
// that walk.  One walk loop serves every caller, templated on a sink that
// either counts steps (an order's cost: the EA's fitness, the 2-opt,
// annealing and exhaustive scores) or appends them (the program).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/migration.hpp"
#include "core/program.hpp"
#include "util/deadline.hpp"

namespace rfsm {

/// How a walk connects the current state to the next delta source.
enum class DecodeRule {
  /// Paper Sec. 4.6: existing path of length <= 1, else reset + temporary.
  kPaper,
  /// Min of {walk from here, reset + walk, reset + temporary}; walks may be
  /// any length.  Never longer than kPaper; used by the ablation benches.
  kBestOfThree,
  /// Ablation A2: the cheaper of walk from here and reset + walk; a
  /// temporary transition only for a source no walk reaches.
  kNoTemporary,
};

/// Options shared by the order-decoding planners.
struct DecodeOptions {
  /// Fixed input condition i0 for temporary transitions (superset id);
  /// kNoSymbol = first input of M'.
  SymbolId tempInput = kNoSymbol;
  DecodeRule rule = DecodeRule::kPaper;
  /// Cooperative cancellation: polled once per scored or decoded order and
  /// once per greedy round; an expired token unwinds the planner with
  /// CancelledError.  nullptr = not cancellable.
  const CancelToken* cancel = nullptr;
};

/// Single-source BFS over a flat next-state table (cell state·|I| + input,
/// kNoSymbol = unspecified): distances plus one shortest-path tree.  States
/// leave the FIFO queue in discovery order and each scans its inputs in
/// ascending order, so the tree is the one MutableMachine replay follows
/// input by input.
struct BfsTree {
  std::vector<int> dist;            ///< -1 = unreachable
  std::vector<SymbolId> prevState;  ///< tree predecessor; kNoSymbol at root
  std::vector<SymbolId> prevInput;  ///< input of the predecessor's edge
  std::vector<SymbolId> queue;      ///< FIFO scratch, kept for reuse

  /// Recomputes the tree rooted at `from` over `table`, reusing this
  /// tree's buffers.
  void build(const std::vector<SymbolId>& table, SymbolId inputCount,
             SymbolId from);

  /// Inputs of the tree path from the root to `to`, in walking order (empty
  /// when `to` is the root).  Requires dist[to] >= 0.
  std::vector<SymbolId> walkTo(SymbolId to) const;
};

/// The planning-time machine and the connection rule.  Built once per
/// planner call from a MigrationContext; keeps no reference to it.
///
/// cost(), decode() and greedy() are thread-safe: each walks the calling
/// thread's scratch copy of the table (tagged with this kernel's id),
/// logs every cell it rewrites and undoes the log before returning, so
/// there is no lock and a warm thread allocates nothing per cost().  A
/// walk is never nested inside another on one thread.
class ConnectionKernel {
 public:
  /// Checks that the temporary input lies in M'.
  explicit ConnectionKernel(const MigrationContext& context,
                            const DecodeOptions& options = {});

  /// Number of deltas an order ranges over: the deltas outside the
  /// temporary cell (i0, S0'), which the walk's tail repairs.
  int deltaCount() const { return static_cast<int>(deltas_.size()); }

  /// Length of the program decode(order) would build.  `order` must be a
  /// permutation of 0..deltaCount()-1.  Polls the cancel token.
  int cost(const std::vector<int>& order) const;

  /// The program for `order`: a leading reset, then per delta the
  /// connection and the rewrite, then the temporary-cell repair and a
  /// closing reset.  Same checks as cost().
  ReconfigurationProgram decode(const std::vector<int>& order) const;

  /// Nearest-neighbour program: each round rewrites the delta the rule
  /// connects to most cheaply (lowest index on ties).  Polls the cancel
  /// token once per round.
  ReconfigurationProgram greedy() const;

  /// BFS tree from `from` over M's table, the table every walk starts on.
  BfsTree bfs(SymbolId from) const;

 private:
  /// A loop delta as the walk reads it: the cell it rewrites and its
  /// source and target states.  16 bytes, the cost loop's stride; the
  /// emitting walk takes the step's input and output from loopDeltas_.
  struct Delta {
    std::size_t cell;
    SymbolId from;
    SymbolId to;
  };
  class Walk;

  std::uint64_t id_;  ///< process-unique: tags the per-thread scratch
  DecodeRule rule_;
  const CancelToken* cancel_;
  SymbolId inputCount_;
  std::vector<SymbolId> next_;  ///< M's next-state table over supersets
  std::vector<Delta> deltas_;
  std::vector<Transition> loopDeltas_;  ///< deltas_ as transitions
  SymbolId i0_;
  SymbolId s0_;
  std::size_t tempCell_;   ///< cell (i0, S0')
  SymbolId tempTarget_;    ///< F'(i0, S0')
  SymbolId tempOutput_;    ///< G'(i0, S0')
  bool tempCellIsDelta_ = false;
};

}  // namespace rfsm
