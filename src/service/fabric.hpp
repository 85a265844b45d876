// Cross-host planner fabric: one logical planner over N rfsmd endpoints.
//
// The fabric shards a batch across replicated endpoints (Unix or TCP) and
// leans on the spec-based protocol's bit-identity contract — any endpoint
// planning subrange [lo, hi) produces the exact bytes the unsharded
// in-process planAll would for those slots — to make every robustness
// mechanism lossless:
//
//  * Circuit breakers — each endpoint has a CLOSED/OPEN/HALF-OPEN breaker
//    (util/breaker.hpp) fed by connect errors, deadline misses, and
//    UNAVAILABLE replies.  Shards never touch an OPEN endpoint; a HALF-OPEN
//    one gets a single probe shard.
//  * Rerouting — a shard that fails on one endpoint retries on the next
//    healthy one with the supervisor's backoff+jitter schedule.  Because of
//    bit-identity, the reroute cannot change the output.
//  * Hedged requests — after `hedgeMs` of silence a tail shard is
//    duplicated to a second healthy endpoint; the first answer wins and the
//    loser is cancelled (its breaker sees recordAbandoned, not a verdict).
//  * Quorum verification — with `quorum` K >= 2, a sample of shards is sent
//    to K endpoints and the replies are *byte-compared* (bit-identity makes
//    this one memcmp, no semantic diffing).  On divergence the shard is
//    recomputed in-process — correct by construction — so stdout stays
//    byte-identical; endpoints whose bytes disagree with the local ground
//    truth have their breaker tripped and fabric.quorum_mismatch bumped.
//    A lying endpoint is detected and quarantined, never silently served.
//
// Degradation ladder (stdout byte-identical at every rung):
//   1. fabric across all healthy endpoints;
//   2. plain planBatch against any single healthy endpoint (which itself
//      degrades to rung 3 when that endpoint fails too);
//   3. in-process planning.
// Each rung drop prints exactly one stderr notice with a stable reason
// token (client.hpp's kReason* strings).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "util/breaker.hpp"
#include "util/ipc.hpp"

namespace rfsm::service {

struct FabricOptions {
  /// Replicated rfsmd endpoints (ipc::parseEndpoint syntax each).
  std::vector<ipc::Endpoint> endpoints;
  /// Latency budget per shard exchange; 0 = none (a 30 s transport bound
  /// still applies so a silent endpoint costs a timeout, not a hang).
  std::int64_t deadlineMs = 0;
  /// Parallelism of quorum recomputation and degraded in-process runs.
  int jobs = 1;
  /// Instances per fabric shard; 0 = auto (spread the batch two shards
  /// deep per endpoint so rerouting has somewhere to go).
  std::uint64_t shardSize = 0;
  /// Hedge a shard to a second endpoint after this much silence; 0 = off.
  std::int64_t hedgeMs = 0;
  /// Endpoints that must byte-agree on sampled shards; <= 1 = off.
  int quorum = 1;
  /// Attempts per shard across endpoints (first try + reroutes).
  int maxAttempts = 3;
  /// Reroute backoff schedule (util/backoff.hpp's backoffDelay).
  std::chrono::milliseconds backoffBase{25};
  std::chrono::milliseconds backoffCap{1000};
  std::uint64_t jitterSeed = 1;
  /// Per-endpoint breaker tuning.
  BreakerOptions breaker;
};

/// A reusable multi-endpoint client: breaker state persists across plan()
/// calls, so an endpoint that died during one batch is still quarantined
/// for the next.  Thread-compatible (one plan() at a time).
class Fabric {
 public:
  explicit Fabric(FabricOptions options);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Plans `spec` across the endpoint set, descending the degradation
  /// ladder as needed.  Diagnostics go to `err`; stdout formatting is the
  /// caller's business.  The result is byte-identical to planLocal
  /// whenever status == kOk, regardless of which rung served it.
  ClientResult plan(const BatchSpec& spec, std::ostream& err);

  std::size_t endpointCount() const;
  /// Endpoint i's breaker (diagnostics and tests).
  const CircuitBreaker& breaker(std::size_t index) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rfsm::service
