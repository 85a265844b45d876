#include "core/partial.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/connection.hpp"
#include "core/mutable_machine.hpp"
#include "util/check.hpp"

namespace rfsm {
namespace {

constexpr int kInf = std::numeric_limits<int>::max() / 4;

}  // namespace

DeltaClassification classifyDeltas(const MigrationContext& context) {
  DeltaClassification result;
  for (const Transition& t : context.deltaTransitions()) {
    const bool outsideSource =
        !context.inSourceInputs(t.input) || !context.inSourceStates(t.from) ||
        !context.inSourceStates(t.to) || !context.inSourceOutputs(t.output);
    if (outsideSource) {
      ++result.structural;
      continue;
    }
    const bool nextDiffers = context.sourceNext(t.input, t.from) != t.to;
    const bool outDiffers = context.sourceOutput(t.input, t.from) != t.output;
    if (nextDiffers && outDiffers) {
      ++result.both;
    } else if (nextDiffers) {
      ++result.transitionOnly;
    } else {
      ++result.outputOnly;
    }
  }
  return result;
}

bool isOutputOnlyMigration(const MigrationContext& context) {
  const DeltaClassification c = classifyDeltas(context);
  return c.transitionOnly == 0 && c.both == 0 && c.structural == 0;
}

std::optional<ReconfigurationProgram> planOutputOnlyOptimal(
    const MigrationContext& context, int maxDeltas) {
  if (!isOutputOnlyMigration(context))
    throw MigrationError(
        "planOutputOnlyOptimal requires an output-only migration");
  const std::vector<Transition>& deltas = context.deltaTransitions();
  const int n = static_cast<int>(deltas.size());
  if (n > maxDeltas) return std::nullopt;
  if (n == 0) {
    ReconfigurationProgram program;
    program.steps.push_back(ReconfigStep::reset());
    return program;
  }

  // Static BFS trees (the graph never changes in output-only migrations):
  // from S0' and from every delta's landing state, the states a connection
  // can start from.
  const ConnectionKernel kernel(context);
  const SymbolId s0 = context.targetReset();
  const BfsTree fromReset = kernel.bfs(s0);
  auto walkOrReset = [&](const BfsTree& fromU, SymbolId v) {
    const int dWalk = fromU.dist[static_cast<std::size_t>(v)];
    const int dReset = fromReset.dist[static_cast<std::size_t>(v)];
    const int costWalk = dWalk < 0 ? kInf : dWalk;
    const int costReset = dReset < 0 ? kInf : 1 + dReset;
    return std::min(costWalk, costReset);
  };

  // cost[a][b]: cycles to move from delta a's landing state to delta b's
  // source; start[b]: from S0' (after the leading reset) to b's source.
  std::vector<BfsTree> fromLanding;
  fromLanding.reserve(static_cast<std::size_t>(n));
  for (int a = 0; a < n; ++a)
    fromLanding.push_back(
        kernel.bfs(deltas[static_cast<std::size_t>(a)].to));
  std::vector<int> start(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> cost(
      static_cast<std::size_t>(n), std::vector<int>(static_cast<std::size_t>(n)));
  for (int b = 0; b < n; ++b) {
    start[static_cast<std::size_t>(b)] =
        walkOrReset(fromReset, deltas[static_cast<std::size_t>(b)].from);
    for (int a = 0; a < n; ++a)
      cost[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
          walkOrReset(fromLanding[static_cast<std::size_t>(a)],
                      deltas[static_cast<std::size_t>(b)].from);
  }

  // Held-Karp over delta subsets.
  const std::size_t full = std::size_t{1} << n;
  std::vector<std::vector<int>> dp(
      full, std::vector<int>(static_cast<std::size_t>(n), kInf));
  std::vector<std::vector<int>> parent(
      full, std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int b = 0; b < n; ++b)
    dp[std::size_t{1} << b][static_cast<std::size_t>(b)] =
        start[static_cast<std::size_t>(b)];
  for (std::size_t mask = 1; mask < full; ++mask) {
    for (int last = 0; last < n; ++last) {
      if (!(mask & (std::size_t{1} << last))) continue;
      const int base = dp[mask][static_cast<std::size_t>(last)];
      if (base >= kInf) continue;
      for (int next = 0; next < n; ++next) {
        if (mask & (std::size_t{1} << next)) continue;
        const std::size_t nextMask = mask | (std::size_t{1} << next);
        const int candidate =
            base + cost[static_cast<std::size_t>(last)][
                       static_cast<std::size_t>(next)];
        if (candidate < dp[nextMask][static_cast<std::size_t>(next)]) {
          dp[nextMask][static_cast<std::size_t>(next)] = candidate;
          parent[nextMask][static_cast<std::size_t>(next)] = last;
        }
      }
    }
  }
  int bestLast = -1;
  int bestTotal = kInf;
  for (int last = 0; last < n; ++last) {
    const int tail =
        deltas[static_cast<std::size_t>(last)].to == s0 ? 0 : 1;  // reset
    const int total = dp[full - 1][static_cast<std::size_t>(last)] + tail;
    if (total < bestTotal) {
      bestTotal = total;
      bestLast = last;
    }
  }
  if (bestLast < 0 || bestTotal >= kInf)
    throw MigrationError("output-only optimal planner: instance unreachable");

  // Reconstruct the order.
  std::vector<int> order;
  std::size_t mask = full - 1;
  for (int last = bestLast; last != -1;) {
    order.push_back(last);
    const int prev = parent[mask][static_cast<std::size_t>(last)];
    mask &= ~(std::size_t{1} << last);
    last = prev;
  }
  std::reverse(order.begin(), order.end());

  // Emit: connect by the cheaper of {walk from here, reset + walk from S0'}
  // (the walk on ties), then rewrite in place.
  ReconfigurationProgram program;
  program.steps.push_back(ReconfigStep::reset());
  SymbolId state = s0;
  const BfsTree* here = &fromReset;
  for (const int index : order) {
    const Transition& td = deltas[static_cast<std::size_t>(index)];
    if (state != td.from) {
      const int dHere = here->dist[static_cast<std::size_t>(td.from)];
      const int dReset = fromReset.dist[static_cast<std::size_t>(td.from)];
      const int costWalk = dHere < 0 ? kInf : dHere;
      const int costReset = dReset < 0 ? kInf : 1 + dReset;
      if (costWalk >= kInf && costReset >= kInf)
        throw MigrationError("output-only planner: state '" +
                             context.states().name(td.from) +
                             "' unreachable without temporary transitions");
      if (costReset < costWalk) {
        program.steps.push_back(ReconfigStep::reset());
        here = &fromReset;
      }
      for (const SymbolId input : here->walkTo(td.from))
        program.steps.push_back(ReconfigStep::traverse(input));
    }
    // Output-only rewrite: td.to equals the existing F value, so the graph
    // is unchanged and the machine simply takes the (relabelled) edge.
    program.steps.push_back(ReconfigStep::rewrite(td.input, td.to, td.output));
    state = td.to;
    here = &fromLanding[static_cast<std::size_t>(index)];
  }
  if (state != s0) program.steps.push_back(ReconfigStep::reset());
  return program;
}

}  // namespace rfsm
