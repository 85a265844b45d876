// Content-addressed plan-result cache: the ROADMAP's "millions-of-users
// lever".
//
// The service's whole wire protocol already describes work by value — a
// BatchSpec plus an instance index determines the planned program bytes
// exactly (protocol.hpp's regeneration contract, with the plan substream
// indexed *absolutely*, not per-shard).  That makes plan results perfect
// memoization targets: the cache key is a canonical hash of every field
// that feeds generation or planning (dims, delta set size, seed, planner
// name, EA config, instance index), and the value is the rendered
// rfsm-program text — the same bytes a cold computation would produce, so
// a hit is indistinguishable from recomputation on stdout.
//
// Sharing model is broker-in-parent: the cache lives in whichever process
// consults it — the rfsmd server parent (so a result planned by worker A
// serves later requests without touching worker B), the fabric client (so
// a warm shard is never dispatched to a remote endpoint at all), and plain
// in-process planRange.  Workers themselves keep it disabled; their
// results flow up through the parent's store.
//
// The cache is OFF by default (capacity 0).  Tools opt in via --plan-cache
// or RFSM_PLAN_CACHE; the library never reads the environment on its own,
// keeping tests hermetic.
//
// Poisoning defense: the key is not a cryptographic commitment, and a
// corrupted or tampered entry would otherwise be served forever.  The
// fabric routes *sampled* cache hits through the existing --quorum
// byte-verification; a divergent entry is quarantined (erased, ghost
// history dropped), counted in service.plan_cache_poisoned, recomputed,
// and the recomputed truth re-stored — the poisoned bytes are never served
// (fabric.cpp, verifyCachedShard).
//
// Invalidation: keys never expire by time — a (spec, index) pair's correct
// bytes cannot change while the planner implementation stands still.  When
// an intentional change to planner output bytes lands, bump
// kPlanCacheKeyVersion; it is hashed into every key, so all old entries
// become unreachable at once.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "service/protocol.hpp"

namespace rfsm::service {

/// Hashed into every key.  Bump when planner output bytes may legitimately
/// change, so stale entries from an older build cannot alias new requests.
inline constexpr std::uint64_t kPlanCacheKeyVersion = 1;

/// Capacity used when RFSM_PLAN_CACHE is set to something other than a
/// number.
inline constexpr std::size_t kPlanCacheDefaultCapacity = 4096;

/// (Re)bounds the process-wide plan cache to `capacity` entries; 0 disables
/// it and drops everything held.  Shrinking evicts immediately (counted in
/// service.plan_cache_evictions).
void configurePlanCache(std::size_t capacity);

/// Applies RFSM_PLAN_CACHE: unset/"0" leaves the cache off, a positive
/// integer is the capacity (so `RFSM_PLAN_CACHE=1` means one entry, not
/// "on"), any other non-empty value (e.g. "on", or junk) enables the
/// default capacity.  Called by tool mains only, never by the library.
void configurePlanCacheFromEnv();

bool planCacheEnabled();
std::size_t planCacheSize();
std::size_t planCacheCapacity();

/// Canonical key for instance `index` of `spec` (32 hex chars).  Absorbs
/// every BatchSpec field that affects the planned bytes — dims, delta
/// counts, seed, planner, EA config — plus kPlanCacheKeyVersion and the
/// absolute instance index.  Deliberately omits instanceCount: instance k
/// of a 10-batch and of a 1000-batch are the same machine and the same
/// plan, and cross-batch sharing is the point.
std::string planCacheKey(const BatchSpec& spec, std::uint64_t index);

/// Program text for `key`, counting service.plan_cache_hits/_misses.
/// Always a miss while the cache is disabled (and then counts nothing —
/// disabled means invisible).
std::optional<std::string> planCacheLookup(const std::string& key);

/// Stores `program` under `key` (no-op while disabled), counting evictions.
void planCacheStore(const std::string& key, std::string program);

/// Erases `key` outright, including its ghost-list history, so a poisoned
/// entry cannot be fast-readmitted on the strength of a tainted past.  The
/// caller counts service.plan_cache_poisoned (quarantine is also used by
/// tests for plain invalidation).
void planCacheQuarantine(const std::string& key);

/// Empties the cache without changing its capacity (tests).
void clearPlanCache();

}  // namespace rfsm::service
