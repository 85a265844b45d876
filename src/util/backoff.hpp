// The one retry-delay schedule.  Supervisor shard retries and fabric
// reroutes draw their jitter from a seeded Rng; session reconnects and
// replica ship retries derive it from (salt, attempt) with saltedJitter, so
// a fleet of clients fans out without a shared RNG while any one client
// sleeps the same amount for the same attempt.
#pragma once

#include <chrono>
#include <string_view>

namespace rfsm {

/// Delay before retry `attempt` (1-based): base * 2^(attempt-1), capped at
/// `cap`, plus jitter01 * base (jitter01 in [0, 1]); never above cap + base.
std::chrono::milliseconds backoffDelay(int attempt,
                                       std::chrono::milliseconds base,
                                       std::chrono::milliseconds cap,
                                       double jitter01);

/// A jitter in [0, 1) fixed by (salt, attempt): the top 53 bits of
/// fnv1a64(attempt, fnv1a64(salt)).
double saltedJitter(std::string_view salt, int attempt);

}  // namespace rfsm
