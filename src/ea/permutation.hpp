// Permutation genomes and variation operators.
//
// Sec. 4.6 of the paper encodes "each individual as a permutation of the
// order in which the delta transitions are reconfigured" — exactly the TSP
// genome.  The operators here are the classic permutation-preserving ones:
// order crossover (OX), partially matched crossover (PMX), and swap /
// insert / inversion mutations.  All preserve the permutation property by
// construction; tests assert it anyway.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace rfsm {

/// A permutation of 0..n-1.
using Permutation = std::vector<int>;

/// True when `p` contains each of 0..p.size()-1 exactly once.
bool isPermutation(const Permutation& p);

/// Uniformly random permutation of 0..n-1.
Permutation randomPermutation(int n, Rng& rng);

/// Order crossover (OX) into `child`: copies a random slice of `a`, fills
/// the rest in the cyclic order of `b`.  `child` is overwritten (its
/// capacity is reused, so a warm buffer costs no allocation) and must not
/// be one of the parents.
void orderCrossover(const Permutation& a, const Permutation& b, Rng& rng,
                    Permutation& child);

/// Partially matched crossover (PMX) into `child`; same buffer contract as
/// orderCrossover.
void pmxCrossover(const Permutation& a, const Permutation& b, Rng& rng,
                  Permutation& child);

/// Swaps two random positions.
void swapMutation(Permutation& p, Rng& rng);

/// Removes a random element and reinserts it at a random position.
void insertMutation(Permutation& p, Rng& rng);

/// Reverses a random slice.
void inversionMutation(Permutation& p, Rng& rng);

}  // namespace rfsm
