#include "ea/permutation.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace rfsm {

bool isPermutation(const Permutation& p) {
  std::vector<bool> seen(p.size(), false);
  for (int v : p) {
    if (v < 0 || v >= static_cast<int>(p.size())) return false;
    if (seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

Permutation randomPermutation(int n, Rng& rng) {
  RFSM_CHECK(n >= 0, "permutation size must be non-negative");
  Permutation p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  rng.shuffle(p);
  return p;
}

namespace {
/// Random slice [lo, hi] of a size-n genome, lo <= hi.
std::pair<std::size_t, std::size_t> randomSlice(std::size_t n, Rng& rng) {
  std::size_t lo = static_cast<std::size_t>(rng.below(n));
  std::size_t hi = static_cast<std::size_t>(rng.below(n));
  if (lo > hi) std::swap(lo, hi);
  return {lo, hi};
}

/// Per-thread marks indexed by gene, all zero between calls: a crossover
/// sets the marks it needs and clears them before it returns, so a warm
/// thread allocates nothing per child.
std::vector<char>& geneMarks(std::size_t n) {
  thread_local std::vector<char> marks;
  if (marks.size() < n) marks.resize(n, 0);
  return marks;
}

void checkParents(const Permutation& a, const Permutation& b,
                  const Permutation& child) {
  RFSM_CHECK(a.size() == b.size(), "parents must have equal length");
  RFSM_CHECK(&child != &a && &child != &b, "child must not alias a parent");
}
}  // namespace

void orderCrossover(const Permutation& a, const Permutation& b, Rng& rng,
                    Permutation& child) {
  checkParents(a, b, child);
  const std::size_t n = a.size();
  if (n <= 1) {
    child = a;
    return;
  }
  const auto [lo, hi] = randomSlice(n, rng);

  child.resize(n);
  std::vector<char>& used = geneMarks(n);
  for (std::size_t k = lo; k <= hi; ++k) {
    child[k] = a[k];
    used[static_cast<std::size_t>(a[k])] = 1;
  }
  // Fill the remaining slots, from hi + 1 round to lo - 1, in the cyclic
  // order of b starting after hi: b[hi + 1 ..] first, then b[.. hi].
  std::size_t write = hi + 1 == n ? 0 : hi + 1;
  auto fill = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      const int gene = b[k];
      if (used[static_cast<std::size_t>(gene)] != 0) continue;
      child[write] = gene;
      if (++write == n) write = 0;
    }
  };
  fill(hi + 1, n);
  fill(0, hi + 1);
  for (std::size_t k = lo; k <= hi; ++k)
    used[static_cast<std::size_t>(a[k])] = 0;
}

void pmxCrossover(const Permutation& a, const Permutation& b, Rng& rng,
                  Permutation& child) {
  checkParents(a, b, child);
  const std::size_t n = a.size();
  if (n <= 1) {
    child = a;
    return;
  }
  const auto [lo, hi] = randomSlice(n, rng);

  child.assign(n, -1);
  std::vector<char>& placed = geneMarks(n);
  for (std::size_t k = lo; k <= hi; ++k) {
    child[k] = a[k];
    placed[static_cast<std::size_t>(a[k])] = 1;
  }
  for (std::size_t k = lo; k <= hi; ++k) {
    const int value = b[k];
    if (placed[static_cast<std::size_t>(value)] != 0) continue;
    // Follow the PMX mapping chain until a free slot is found.
    std::size_t slot = k;
    while (child[slot] != -1) {
      const int displaced = child[slot];
      // Where does `displaced` sit in b?  That slot is the next candidate.
      slot = static_cast<std::size_t>(
          std::find(b.begin(), b.end(), displaced) - b.begin());
    }
    child[slot] = value;
    placed[static_cast<std::size_t>(value)] = 1;
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (child[k] == -1) child[k] = b[k];
  }
  // Every mark set above is a gene of a[lo..hi] or b[lo..hi].
  for (std::size_t k = lo; k <= hi; ++k) {
    placed[static_cast<std::size_t>(a[k])] = 0;
    placed[static_cast<std::size_t>(b[k])] = 0;
  }
}

void swapMutation(Permutation& p, Rng& rng) {
  if (p.size() < 2) return;
  const std::size_t i = static_cast<std::size_t>(rng.below(p.size()));
  const std::size_t j = static_cast<std::size_t>(rng.below(p.size()));
  std::swap(p[i], p[j]);
}

void insertMutation(Permutation& p, Rng& rng) {
  if (p.size() < 2) return;
  const std::size_t from = static_cast<std::size_t>(rng.below(p.size()));
  const std::size_t to = static_cast<std::size_t>(rng.below(p.size()));
  const int value = p[from];
  p.erase(p.begin() + static_cast<std::ptrdiff_t>(from));
  p.insert(p.begin() + static_cast<std::ptrdiff_t>(to), value);
}

void inversionMutation(Permutation& p, Rng& rng) {
  if (p.size() < 2) return;
  auto [lo, hi] = randomSlice(p.size(), rng);
  std::reverse(p.begin() + static_cast<std::ptrdiff_t>(lo),
               p.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
}

}  // namespace rfsm
