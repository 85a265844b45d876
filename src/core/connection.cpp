#include "core/connection.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace rfsm {

void BfsTree::build(const std::vector<SymbolId>& table, SymbolId inputCount,
                    SymbolId from) {
  const auto inputs = static_cast<std::size_t>(inputCount);
  const std::size_t states = table.size() / inputs;
  dist.assign(states, -1);
  prevState.assign(states, kNoSymbol);
  prevInput.assign(states, kNoSymbol);
  queue.resize(states);  // every state enters the queue at most once
  std::size_t head = 0, tail = 0;
  dist[static_cast<std::size_t>(from)] = 0;
  queue[tail++] = from;
  while (head < tail) {
    const auto u = static_cast<std::size_t>(queue[head++]);
    for (std::size_t i = 0; i < inputs; ++i) {
      const SymbolId v = table[u * inputs + i];
      if (v == kNoSymbol || dist[static_cast<std::size_t>(v)] != -1) continue;
      dist[static_cast<std::size_t>(v)] = dist[u] + 1;
      prevState[static_cast<std::size_t>(v)] = static_cast<SymbolId>(u);
      prevInput[static_cast<std::size_t>(v)] = static_cast<SymbolId>(i);
      queue[tail++] = v;
    }
  }
}

std::vector<SymbolId> BfsTree::walkTo(SymbolId to) const {
  RFSM_CHECK(dist[static_cast<std::size_t>(to)] >= 0,
             "walk target is unreachable");
  std::vector<SymbolId> inputs(
      static_cast<std::size_t>(dist[static_cast<std::size_t>(to)]));
  for (auto v = static_cast<std::size_t>(to); dist[v] > 0;
       v = static_cast<std::size_t>(prevState[v]))
    inputs[static_cast<std::size_t>(dist[v] - 1)] = prevInput[v];
  return inputs;
}

namespace {

constexpr int kUnreachable = std::numeric_limits<int>::max() / 4;

/// One thread's working copy of a kernel's table, plus the undo log, the
/// permutation-check stamps and the two BFS rows a walk reads.  The table
/// equals the owner's between walks (every walk undoes its writes), so it
/// is re-copied only when the thread switches kernels.
struct Scratch {
  std::uint64_t owner = 0;  ///< kernel id the table belongs to; 0 = none
  std::vector<SymbolId> next;
  /// (cell, old value) per write; a walk writes at most two cells per
  /// delta (a temporary and the delta), so it never grows mid-walk.
  std::vector<std::pair<std::size_t, SymbolId>> undo;
  std::vector<std::uint32_t> seen;  ///< == stamp: index already in the order
  std::uint32_t stamp = 0;
  /// Bumped when a walk starts and on every write of a walk that reads BFS
  /// rows; a row is current while its epoch equals this.
  std::uint64_t epoch = 0;
  BfsTree here, reset;  ///< rows from hereRoot and from S0'
  SymbolId hereRoot = kNoSymbol;
  std::uint64_t hereEpoch = 0, resetEpoch = 0;
};

thread_local Scratch tScratch;

std::atomic<std::uint64_t> gNextKernelId{1};

/// Sink of the cost walk: counts the steps.
struct CountSteps {
  int length = 0;
  void reset() { ++length; }
  void traverse(SymbolId) { ++length; }
  void walk(const BfsTree& tree, SymbolId to) {
    length += tree.dist[static_cast<std::size_t>(to)];
  }
  void rewrite(SymbolId, SymbolId, SymbolId, bool) { ++length; }
};

/// Sink of the decoding walk: appends the steps.
struct AppendSteps {
  ReconfigurationProgram program;
  void reset() { program.steps.push_back(ReconfigStep::reset()); }
  void traverse(SymbolId input) {
    program.steps.push_back(ReconfigStep::traverse(input));
  }
  void walk(const BfsTree& tree, SymbolId to) {
    for (const SymbolId input : tree.walkTo(to)) traverse(input);
  }
  void rewrite(SymbolId input, SymbolId next, SymbolId output,
               bool temporary) {
    program.steps.push_back(
        ReconfigStep::rewrite(input, next, output, temporary));
  }
};

/// Rejects anything but a permutation of 0..n-1, without clearing the
/// stamps: an index is taken iff its stamp is this call's.
void checkOrder(const std::vector<int>& order, std::size_t n) {
  RFSM_CHECK(order.size() == n,
             "order must be a permutation of the loop deltas");
  Scratch& s = tScratch;
  if (s.seen.size() < n) s.seen.resize(n, 0);
  if (++s.stamp == 0) {
    std::fill(s.seen.begin(), s.seen.end(), 0);
    s.stamp = 1;
  }
  for (const int index : order) {
    const bool fresh = index >= 0 && static_cast<std::size_t>(index) < n &&
                       s.seen[static_cast<std::size_t>(index)] != s.stamp;
    RFSM_CHECK(fresh, "order must be a permutation");
    s.seen[static_cast<std::size_t>(index)] = s.stamp;
  }
}

}  // namespace

/// One walk over the calling thread's scratch table, starting in S0' (the
/// state after a program's leading reset); undoes its writes when it ends.
/// Templated on whether the rule is kPaper, which reads no BFS row.  Built
/// as Walk(kernel, Walk::claim(kernel)) so the constructor stays trivial:
/// it inlines, and the walk's state lives in registers.
class ConnectionKernel::Walk {
 public:
  Walk(const ConnectionKernel& kernel, Scratch& scratch)
      : k_(kernel),
        s_(scratch),
        table_(scratch.next.data()),
        undo_(scratch.undo.data()),
        state_(kernel.s0_) {}

  ~Walk() {
    while (writes_ > 0) {
      --writes_;
      table_[undo_[writes_].first] = undo_[writes_].second;
    }
  }

  Walk(const Walk&) = delete;
  Walk& operator=(const Walk&) = delete;

  /// The calling thread's scratch holding `kernel`'s table, with an undo
  /// log sized for a walk and a new epoch.
  static Scratch& claim(const ConnectionKernel& kernel) {
    Scratch& s = tScratch;
    if (s.owner != kernel.id_) {
      s.next.assign(kernel.next_.begin(), kernel.next_.end());
      s.owner = kernel.id_;
    }
    if (s.undo.size() < 2 * kernel.deltas_.size())
      s.undo.resize(2 * kernel.deltas_.size());
    ++s.epoch;
    return s;
  }

  /// A leading reset, each delta of `order` connected and rewritten, then
  /// the temporary-cell repair and a closing reset.
  template <bool kPaper, class Sink>
  void run(const std::vector<int>& order, Sink& sink) {
    sink.reset();
    for (const int index : order)
      deliver<kPaper>(static_cast<std::size_t>(index), sink);
    finish(sink);
  }

  /// As run(), with the order chosen round by round: the remaining delta
  /// with the cheapest connection, lowest index on ties.
  template <bool kPaper, class Sink>
  void runGreedy(Sink& sink) {
    sink.reset();
    const std::size_t n = k_.deltas_.size();
    std::vector<char> done(n, 0);
    for (std::size_t round = 0; round < n; ++round) {
      pollCancel(k_.cancel_, "planner.greedy");
      std::size_t best = n;
      int bestCost = kUnreachable + 1;
      for (std::size_t k = 0; k < n; ++k) {
        if (done[k] != 0) continue;
        const SymbolId from = k_.deltas_[k].from;
        const int cost = state_ == from ? 0 : choose<kPaper>(from).cost;
        if (cost < bestCost) {
          bestCost = cost;
          best = k;
        }
      }
      done[best] = 1;
      deliver<kPaper>(best, sink);
    }
    finish(sink);
  }

 private:
  enum class Connect { kWalk, kResetWalk, kTemporary };

  struct Choice {
    Connect how;
    int cost;
    SymbolId edge;  ///< a one-edge kWalk: its (lowest) input
  };

  template <bool kPaper>
  void write(std::size_t cell, SymbolId value) {
    undo_[writes_++] = {cell, table_[cell]};
    table_[cell] = value;
    if constexpr (!kPaper) ++s_.epoch;
  }

  /// Lowest input whose cell leads the current state to `to`, or
  /// kNoSymbol (an unspecified cell never equals a state).
  SymbolId edgeTo(SymbolId to) const {
    const SymbolId* row = table_ + static_cast<std::size_t>(state_) *
                                       static_cast<std::size_t>(
                                           k_.inputCount_);
    for (SymbolId i = 0; i < k_.inputCount_; ++i)
      if (row[i] == to) return i;
    return kNoSymbol;
  }

  /// The BFS row from `root` over the current table, computed at most once
  /// per table write.
  const BfsTree& tree(SymbolId root) {
    if (root == k_.s0_) {
      if (s_.resetEpoch != s_.epoch) {
        s_.reset.build(s_.next, k_.inputCount_, root);
        s_.resetEpoch = s_.epoch;
      }
      return s_.reset;
    }
    if (s_.hereEpoch != s_.epoch || s_.hereRoot != root) {
      s_.here.build(s_.next, k_.inputCount_, root);
      s_.hereRoot = root;
      s_.hereEpoch = s_.epoch;
    }
    return s_.here;
  }

  /// The connection to a source other than the current state, and its
  /// cost.  kPaper: an existing edge, else [reset +] temporary, which the
  /// greedy round prices at 2 away from S0' even when the reset alone
  /// arrives.  kBestOfThree: the cheapest of walk, reset + walk and
  /// [reset +] temporary; kNoTemporary the same, with the temporary only
  /// when no walk arrives.  Non-mutating connections win ties.
  template <bool kPaper>
  Choice choose(SymbolId from) {
    // A one-edge walk costs 1, which no other connection undercuts.
    const SymbolId edge = edgeTo(from);
    if (edge != kNoSymbol) return {Connect::kWalk, 1, edge};
    int costTemporary = state_ == k_.s0_ ? 1 : 2;
    if constexpr (kPaper) {
      return {Connect::kTemporary, costTemporary, edge};
    } else {
      const int dHere = tree(state_).dist[static_cast<std::size_t>(from)];
      const int costWalk = dHere < 0 ? kUnreachable : dHere;
      const int dReset = tree(k_.s0_).dist[static_cast<std::size_t>(from)];
      const int costResetWalk = dReset < 0 ? kUnreachable : 1 + dReset;
      if (k_.rule_ == DecodeRule::kNoTemporary &&
          (costWalk < kUnreachable || costResetWalk < kUnreachable))
        costTemporary = kUnreachable;
      if (costWalk <= costResetWalk && costWalk <= costTemporary)
        return {Connect::kWalk, costWalk, edge};
      if (costResetWalk <= costTemporary)
        return {Connect::kResetWalk, costResetWalk, edge};
      return {Connect::kTemporary, costTemporary, edge};
    }
  }

  template <bool kPaper, class Sink>
  void connect(SymbolId from, Sink& sink) {
    if (state_ == from) return;
    const Choice choice = choose<kPaper>(from);
    if (choice.how == Connect::kTemporary) {
      if (state_ != k_.s0_) {
        sink.reset();
        state_ = k_.s0_;
      }
      if (state_ == from) return;  // the reset already arrived
      write<kPaper>(k_.tempCell_, from);
      sink.rewrite(k_.i0_, from, k_.tempOutput_, /*temporary=*/true);
      tempDirty_ = true;
    } else if (choice.edge != kNoSymbol) {
      sink.traverse(choice.edge);
    } else if constexpr (!kPaper) {  // kPaper walks one edge at most
      if (choice.how == Connect::kResetWalk) {
        sink.reset();
        state_ = k_.s0_;
      }
      sink.walk(tree(state_), from);
    }
    state_ = from;
  }

  /// Connects to the source of loop delta `index`, then rewrites the delta
  /// while traversing it.
  template <bool kPaper, class Sink>
  void deliver(std::size_t index, Sink& sink) {
    const Delta& td = k_.deltas_[index];
    connect<kPaper>(td.from, sink);
    write<kPaper>(td.cell, td.to);
    const Transition& step = k_.loopDeltas_[index];
    sink.rewrite(step.input, td.to, step.output, /*temporary=*/false);
    state_ = td.to;
  }

  /// Repairs the temporary cell and terminates in S0'.
  template <class Sink>
  void finish(Sink& sink) {
    if (tempDirty_ || k_.tempCellIsDelta_) {
      if (state_ != k_.s0_) {
        sink.reset();
        state_ = k_.s0_;
      }
      sink.rewrite(k_.i0_, k_.tempTarget_, k_.tempOutput_,
                   /*temporary=*/false);
      state_ = k_.tempTarget_;
    }
    if (state_ != k_.s0_) sink.reset();
  }

  const ConnectionKernel& k_;
  Scratch& s_;
  SymbolId* const table_;  ///< s_.next's cells; never resized mid-walk
  std::pair<std::size_t, SymbolId>* const undo_;  ///< s_.undo's entries
  std::size_t writes_ = 0;
  SymbolId state_;
  bool tempDirty_ = false;
};

ConnectionKernel::ConnectionKernel(const MigrationContext& context,
                                   const DecodeOptions& options)
    : id_(gNextKernelId.fetch_add(1, std::memory_order_relaxed)),
      rule_(options.rule),
      cancel_(options.cancel),
      inputCount_(context.inputs().size()),
      i0_(options.tempInput == kNoSymbol ? context.liftTargetInput(0)
                                         : options.tempInput),
      s0_(context.targetReset()) {
  RFSM_CHECK(context.inTargetInputs(i0_),
             "temporary input must be an input of M'");
  const auto cell = [&](SymbolId input, SymbolId state) {
    return static_cast<std::size_t>(state) *
               static_cast<std::size_t>(inputCount_) +
           static_cast<std::size_t>(input);
  };
  // A walk starts on M's cells, everything else unspecified.
  next_.assign(static_cast<std::size_t>(context.states().size()) *
                   static_cast<std::size_t>(inputCount_),
               kNoSymbol);
  for (SymbolId s = 0; s < context.states().size(); ++s)
    for (SymbolId i = 0; i < inputCount_; ++i)
      if (context.inSourceStates(s) && context.inSourceInputs(i))
        next_[cell(i, s)] = context.sourceNext(i, s);
  tempCell_ = cell(i0_, s0_);
  tempTarget_ = context.targetNext(i0_, s0_);
  tempOutput_ = context.targetOutput(i0_, s0_);
  for (const Transition& td : context.deltaTransitions()) {
    if (td.input == i0_ && td.from == s0_) {
      tempCellIsDelta_ = true;
    } else {
      deltas_.push_back(Delta{cell(td.input, td.from), td.from, td.to});
      loopDeltas_.push_back(td);
    }
  }
}

int ConnectionKernel::cost(const std::vector<int>& order) const {
  pollCancel(cancel_, "planner.decode");
  checkOrder(order, deltas_.size());
  Walk walk(*this, Walk::claim(*this));
  CountSteps sink;
  if (rule_ == DecodeRule::kPaper)
    walk.run<true>(order, sink);
  else
    walk.run<false>(order, sink);
  return sink.length;
}

ReconfigurationProgram ConnectionKernel::decode(
    const std::vector<int>& order) const {
  pollCancel(cancel_, "planner.decode");
  checkOrder(order, deltas_.size());
  Walk walk(*this, Walk::claim(*this));
  AppendSteps sink;
  if (rule_ == DecodeRule::kPaper)
    walk.run<true>(order, sink);
  else
    walk.run<false>(order, sink);
  return std::move(sink.program);
}

ReconfigurationProgram ConnectionKernel::greedy() const {
  Walk walk(*this, Walk::claim(*this));
  AppendSteps sink;
  if (rule_ == DecodeRule::kPaper)
    walk.runGreedy<true>(sink);
  else
    walk.runGreedy<false>(sink);
  return std::move(sink.program);
}

BfsTree ConnectionKernel::bfs(SymbolId from) const {
  RFSM_CHECK(from >= 0 && static_cast<std::size_t>(from) *
                                  static_cast<std::size_t>(inputCount_) <
                              next_.size(),
             "BFS source out of range");
  BfsTree tree;
  tree.build(next_, inputCount_, from);
  return tree;
}

}  // namespace rfsm
