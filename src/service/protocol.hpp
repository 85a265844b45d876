// Wire protocol of the planner service (rfsmd).
//
// The key design decision: requests describe batches by *generation spec*,
// not by shipping machines.  Client, server, and every worker regenerate
// instance k from the same seeded streams, so a shard request is a few
// dozen bytes, and — more importantly — any party can (re)plan any
// subrange [lo, hi) of the batch and get bytes identical to what the
// unsharded in-process planAll would produce for those slots.  That is the
// contract the whole robustness story leans on: a shard lost to a worker
// crash is re-planned (possibly on a different worker, after the original
// died mid-write) with no way to drift.
//
// Framing/encoding primitives live in util/ipc.hpp; this header defines
// what the frames mean.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/migration.hpp"
#include "core/planners.hpp"
#include "util/deadline.hpp"
#include "util/metrics.hpp"
#include "util/supervisor.hpp"
#include "util/trace.hpp"

namespace rfsm::service {

/// First u32 of every frame.
enum class MessageType : std::uint32_t {
  kPlanRequest = 1,    ///< client -> server: plan a batch (sub)range
  kPlanResponse = 2,   ///< server -> client
  kHealthRequest = 3,  ///< client -> server: health/readiness probe
  kHealthResponse = 4, ///< server -> client
  kShardRequest = 5,   ///< server -> worker: plan instances [lo, hi)
  kShardResponse = 6,  ///< worker -> server
  kWarmupRequest = 7,  ///< server -> worker: no-op warm-up (prefork pools)
  kWarmupResponse = 8, ///< worker -> server
  // Session streaming (service/session.hpp): a client opens a long-lived
  // session and streams mutate frames over one connection.
  kSessionOpenRequest = 9,
  kSessionOpenResponse = 10,
  kSessionMutateRequest = 11,
  kSessionMutateResponse = 12,
  kSessionReplayRequest = 13,
  kSessionReplayResponse = 14,
  kSessionCloseRequest = 15,
  kSessionCloseResponse = 16,
  // Live telemetry plane: stats scrape and distributed-trace collection.
  kStatsRequest = 17,      ///< client -> server: live stats snapshot
  kStatsResponse = 18,     ///< server -> client
  kTraceDumpRequest = 19,  ///< client -> server: span-ring dump + clock echo
  kTraceDumpResponse = 20, ///< server -> client
  // Version/feature negotiation: a client may probe before speaking so a
  // mixed-version deployment degrades with a typed refusal, not a frame
  // misparse.
  kHandshakeRequest = 21,  ///< client -> server: version + feature bits
  kHandshakeResponse = 22, ///< server -> client
  // Session replication plane (primary -> standby WAL shipping, epoch
  // fenced; service/repl.hpp).  A standby that sees a lower epoch than its
  // own refuses the write — that refusal is what fences a deposed primary.
  kSessionReplAppendRequest = 23,   ///< primary -> standby: one WAL record
  kSessionReplAppendResponse = 24,  ///< standby -> primary
  kSessionReplSnapshotRequest = 25, ///< primary -> standby: snapshot install
  kSessionReplSnapshotResponse = 26,///< standby -> primary
  kSessionStatusRequest = 27,  ///< client -> server: role/epoch of a session
  kSessionStatusResponse = 28, ///< server -> client
};

/// The highest tag: peekType accepts 1..kLastMessageType, so a new frame
/// moves it.
inline constexpr MessageType kLastMessageType =
    MessageType::kSessionStatusResponse;

/// A batch of seeded random migration instances (the Table 2 axis): for
/// instance k, the source machine and its mutated target are generated from
/// Rng(seed).substream(kGenStreamBase + k), then planned with
/// Rng(seed).substream(k) — both independent of how the batch is sharded.
struct BatchSpec {
  int stateCount = 8;
  int inputCount = 2;
  int outputCount = 2;
  int deltaCount = 4;
  int newStateCount = 0;
  std::uint64_t instanceCount = 8;
  std::uint64_t seed = 1;
  std::string planner = "jsr";  ///< jsr | greedy | ea
  /// EA planner knobs (ignored by jsr/greedy, but always on the wire and in
  /// every cache key: any field that can change planned bytes must never be
  /// invisible to a cache).  Defaults mirror EvolutionConfig's.
  int eaPopulation = 64;
  int eaGenerations = 120;

  bool operator==(const BatchSpec&) const = default;
};

/// Offset separating generation streams from planning streams in the
/// substream space of BatchSpec::seed.
inline constexpr std::uint64_t kGenStreamBase = 1u << 20;

/// Generates instance `index` of the batch (deterministic, shard-agnostic).
MigrationContext makeInstance(const BatchSpec& spec, std::uint64_t index);

/// The batch planner named by spec.planner; throws Error on unknown names.
BatchPlanFn plannerFn(const std::string& name);

/// As above, but honours the spec's planner-config fields (EA population /
/// generations) instead of the compiled-in defaults.  A non-null `cancel`
/// is polled by the EA every generation, so a deadline also stops an
/// instance already being planned, not only the ones after it.
BatchPlanFn plannerFn(const BatchSpec& spec,
                      const CancelToken* cancel = nullptr);

/// Whether planRange may consult the process-wide plan-result cache
/// (service/plan_cache.hpp).  kBypass forces ground-truth recomputation —
/// quorum verification and poisoning checks use it so a poisoned entry can
/// never vouch for itself.
enum class PlanCacheMode { kUse, kBypass };

/// Plans instances [lo, hi) in-process and renders each program in the
/// rfsm-program text format (core/program.hpp) — the exact bytes any other
/// shard split would produce for those slots.  `cancel` is polled between
/// instances and inside the planners; `jobs` <= 1 is serial.
///
/// Every instance is regenerated with makeInstance.  Repeats are served by
/// the plan-result cache instead: when it is enabled (plan_cache.hpp) and
/// `mode` is kUse, cached instances are served without regenerating or
/// replanning and fresh results are stored back — hits are byte-identical
/// to cold computation by the regeneration contract: (spec, index)
/// determines both the instance and its plan substream.
std::vector<std::string> planRange(const BatchSpec& spec, std::uint64_t lo,
                                   std::uint64_t hi,
                                   const CancelToken* cancel = nullptr,
                                   int jobs = 1,
                                   PlanCacheMode mode = PlanCacheMode::kUse);

// --- Plan request / response --------------------------------------------

struct PlanRequest {
  BatchSpec spec;
  /// Latency budget in ms; 0 = no deadline.
  std::int64_t deadlineMs = 0;
  /// Client-chosen id, echoed in traces ("service.request" span) so client
  /// and server logs correlate.
  std::uint64_t requestId = 0;
  /// Subrange [lo, hi) of the batch to plan; lo == hi == 0 means the whole
  /// batch.  This is how the fabric shards one spec across endpoints: each
  /// endpoint plans its subrange on the global substreams, so the
  /// concatenation is byte-identical to the unsharded planAll.
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  /// Distributed trace context of the caller's active span — the server
  /// parents its "service.plan_request" span under it, so a stitched dump
  /// links client -> fabric attempt -> daemon -> worker causally.  The
  /// default (invalid, unsampled) context propagates nothing; tracing
  /// observes, never steers (planned bytes are identical either way).
  trace::TraceContext context;

  /// The effective range (resolves the whole-batch shorthand).
  std::uint64_t rangeLo() const { return lo; }
  std::uint64_t rangeHi() const {
    return (lo == 0 && hi == 0) ? spec.instanceCount : hi;
  }
};

struct PlanResponse {
  WorkResult::Status status = WorkResult::Status::kFailed;
  std::string error;
  /// One rfsm-program text per instance (only when status == kOk).
  std::vector<std::string> programs;
  /// Shard retries this request needed (crash/timeout recoveries).
  std::uint64_t retries = 0;
  /// Worker crashes observed during this request.
  std::uint64_t crashes = 0;
  /// Instances served from the server's plan-result cache (0 when the
  /// daemon runs with the cache disabled).
  std::uint64_t cacheHits = 0;
};

std::string encodePlanRequest(const PlanRequest& request);
PlanRequest decodePlanRequest(const std::string& payload);
std::string encodePlanResponse(const PlanResponse& response);
PlanResponse decodePlanResponse(const std::string& payload);

// --- Shard request / response -------------------------------------------

struct ShardRequest {
  BatchSpec spec;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  /// Absolute deadline as steady_clock ns-since-epoch (CLOCK_MONOTONIC is
  /// machine-wide, and workers are always local children); 0 = none.
  std::int64_t deadlineNs = 0;
  /// Trace context of the server's per-shard span; the worker's
  /// "service.worker_shard" span parents under it.
  trace::TraceContext context;
};

struct ShardResponse {
  /// kOk, kDeadlineExceeded (cooperative), or kFailed (planner threw).
  WorkResult::Status status = WorkResult::Status::kFailed;
  std::string error;
  std::vector<std::string> programs;  ///< instances [lo, hi), when kOk
};

std::string encodeShardRequest(const ShardRequest& request);
ShardRequest decodeShardRequest(const std::string& payload);
std::string encodeShardResponse(const ShardResponse& response);
ShardResponse decodeShardResponse(const std::string& payload);

// --- Health probe --------------------------------------------------------

struct HealthResponse {
  bool healthy = false;
  int workersAlive = 0;
  int workersConfigured = 0;
  std::uint64_t queueDepth = 0;
  std::uint64_t crashes = 0;
  std::uint64_t retries = 0;
  std::uint64_t shed = 0;
};

std::string encodeHealthRequest();
std::string encodeHealthResponse(const HealthResponse& response);
HealthResponse decodeHealthResponse(const std::string& payload);

// --- Worker warm-up -------------------------------------------------------
//
// A preforked pool sends each fresh worker one warm-up frame and waits for
// the echo: the exchange forces exec + dynamic loading + allocator warm-up
// to complete at startup, so the first real shard of a request does not pay
// the cold start (the ROADMAP "worker warm pools" item, visible in A13's
// latency column).

std::string encodeWarmupRequest();
std::string encodeWarmupResponse();
void decodeWarmupResponse(const std::string& payload);  ///< throws on junk

// --- Live stats plane -----------------------------------------------------
//
// One scrape frame returns everything a running daemon knows about itself:
// worker-pool health, plan-cache occupancy, per-tenant session gauges,
// fair-scheduler virtual times, registered circuit breakers, and the full
// metrics snapshot (counters, gauges, timers, histograms, rolling windows).
// `rfsmc stats` renders it as a table, JSON, or Prometheus exposition;
// nothing here affects planning.

struct StatsResponse {
  std::int64_t pid = 0;
  std::int64_t uptimeMs = 0;
  bool draining = false;
  /// Worker-pool health (same fields the health probe reports).
  HealthResponse workers;
  struct PlanCacheStats {
    bool enabled = false;
    std::uint64_t size = 0;
    std::uint64_t capacity = 0;
  };
  PlanCacheStats planCache;
  /// Breakers registered in the answering process (BreakerRegistration).
  /// A daemon usually hosts none — breakers live in fabric clients — but
  /// the frame carries whatever the process has.
  struct BreakerStats {
    std::string name;
    std::string state;  ///< CLOSED | OPEN | HALF-OPEN
    std::uint64_t trips = 0;
  };
  std::vector<BreakerStats> breakers;
  /// Per-tenant session gauges (one row per open session).
  struct SessionStats {
    std::string tenant;
    std::string name;
    std::uint32_t priority = 1;
    double weight = 1.0;
    /// Fair-scheduler virtual time of the session's flow.
    double vtime = 0.0;
    /// Admission tokens the tenant's bucket would have right now.
    double tokensRemaining = 0.0;
    /// Accepted-but-not-yet-applied mutations (queue depth).
    std::uint64_t queued = 0;
    std::uint64_t applied = 0;
    /// Milliseconds since the last WAL append / snapshot; -1 = never.
    std::int64_t walAgeMs = -1;
    std::int64_t snapshotAgeMs = -1;
    /// Replication role ("primary" | "standby") and fencing epoch.
    std::string role = "primary";
    std::uint64_t epoch = 1;
  };
  std::vector<SessionStats> sessions;
  std::uint64_t openSessions = 0;
  std::uint64_t schedulerDepth = 0;
  /// Scheduler-wide virtual time (the vtime frontier).
  double schedulerVirtualNow = 0.0;
  /// Full metrics snapshot of the answering process.
  metrics::Snapshot metrics;
};

std::string encodeStatsRequest();
void decodeStatsRequest(const std::string& payload);  ///< throws on junk
std::string encodeStatsResponse(const StatsResponse& response);
StatsResponse decodeStatsResponse(const std::string& payload);

// --- Trace dump -----------------------------------------------------------
//
// Fetches a process's span ring as Chrome-trace JSON, with a steady-clock
// echo for cross-host offset estimation: the client records t0 before the
// request and t1 after the reply, and tools/trace_stitch.py aligns the
// dump with offset = serverSteadyNs - (t0 + t1) / 2.  Same-host processes
// need no offset — CLOCK_MONOTONIC is machine-wide and every dump embeds
// its own steadyEpochNs.

struct TraceDumpRequest {
  /// Client CLOCK_MONOTONIC ns at send (t0 of the offset handshake).
  std::int64_t clientSteadyNs = 0;
};

struct TraceDumpResponse {
  /// Server CLOCK_MONOTONIC ns when it built the dump.
  std::int64_t serverSteadyNs = 0;
  /// clientSteadyNs echoed back, so one socket can pipeline dumps.
  std::int64_t clientSteadyNs = 0;
  /// trace::toJson() of the server's ring (may be large; one frame).
  std::string traceJson;
};

std::string encodeTraceDumpRequest(const TraceDumpRequest& request);
TraceDumpRequest decodeTraceDumpRequest(const std::string& payload);
std::string encodeTraceDumpResponse(const TraceDumpResponse& response);
TraceDumpResponse decodeTraceDumpResponse(const std::string& payload);

// --- Session streaming ----------------------------------------------------
//
// Tenants open long-lived sessions holding resident machines and stream
// mutation requests against them.  Like batch planning, everything is
// spec-driven: a mutate frame carries (deltaCount, newStateCount,
// mutationSeed), not machine bytes, so the whole session transcript is a
// pure function of the open config and the request sequence — which is
// what lets a SIGKILL'd daemon replay its journal and resume byte-identical
// (service/session.hpp).

/// Typed session verdicts (the wire's "why", distinct from the transport
/// WorkResult::Status): RESOURCE_EXHAUSTED is the admission-control signal
/// clients back off on (retryAfterMs carries the hint), DRAINING means the
/// daemon is shutting down gracefully.
enum class SessionStatus : std::uint32_t {
  kOk = 0,
  kAccepted = 1,  ///< deferred mutation journaled; no program planned yet
  kResourceExhausted = 2,
  kDraining = 3,
  kNotFound = 4,
  kBadSequence = 5,
  kFailed = 6,
  /// Replication fence: the frame's epoch is older than the session's.  A
  /// deposed primary that keeps shipping after a standby was promoted gets
  /// this verdict and must stop acking clients (service.stale_epoch_rejected
  /// counts the refusals).
  kStaleEpoch = 7,
};

const char* toString(SessionStatus status);

struct SessionOpenRequest {
  std::string tenant;
  std::string name;
  /// Priority class: 0 = interactive, 1 = normal, 2 = batch (strict order).
  std::uint32_t priority = 1;
  /// Weighted-fair share within the priority class.
  std::uint32_t weight = 1;
  std::string planner = "jsr";  ///< jsr | greedy | ea
  int stateCount = 8;
  int inputCount = 2;
  int outputCount = 2;
  std::uint64_t seed = 1;
  /// Attach to an existing (possibly journal-recovered) session instead of
  /// failing on a name collision; lastApplied in the response tells the
  /// client where to resume.
  bool resume = true;
};

struct SessionOpenResponse {
  SessionStatus status = SessionStatus::kFailed;
  std::string error;
  /// Highest mutation sequence number the session has accepted (0 for a
  /// fresh session) — the client streams from lastApplied + 1.
  std::uint64_t lastApplied = 0;
  std::int64_t retryAfterMs = 0;
};

struct SessionMutateRequest {
  std::string tenant;
  std::string name;
  /// Client-assigned sequence number, contiguous from 1.  A duplicate
  /// (seq <= the session's high-water mark, e.g. a retry after a lost
  /// reply) is answered from the transcript, not re-applied.
  std::uint64_t seq = 0;
  std::uint32_t deltaCount = 4;
  std::uint32_t newStateCount = 0;
  /// Seeds the target-machine mutation (gen/mutator.hpp) — part of the
  /// deterministic spec, so replay regenerates identical targets.
  std::uint64_t mutationSeed = 0;
  /// Journal this mutation but defer planning: consecutive deferred
  /// mutations are compacted into one delta set when the next non-deferred
  /// frame flushes the batch.
  bool defer = false;
  /// Transcript entries with seq <= ackSeq may be garbage-collected (the
  /// client has durably consumed them); 0 = keep everything.
  std::uint64_t ackSeq = 0;
  /// Trace context of the streaming client; the daemon's mutate/apply spans
  /// parent under it.  Not part of the journaled MutationRecord — replay
  /// after recovery owes nobody a trace.
  trace::TraceContext context;
};

struct SessionMutateResponse {
  SessionStatus status = SessionStatus::kFailed;
  std::string error;
  std::uint64_t seq = 0;
  /// The planned reconfiguration program (rfsm-program text) migrating the
  /// resident machine across the compacted delta set; empty for kAccepted.
  std::string program;
  /// Mutations folded into this plan (>= 1: the deferred run plus this).
  std::uint64_t compactedFrom = 0;
  /// Net delta transitions planned vs. raw deltas requested across the
  /// compacted run — the difference is what compaction saved.
  std::uint32_t deltasPlanned = 0;
  std::uint32_t deltasRaw = 0;
  std::int64_t retryAfterMs = 0;
};

struct SessionReplayRequest {
  std::string tenant;
  std::string name;
  /// Inclusive seq range; planned entries in range are returned (deferred
  /// seqs have no transcript entry).
  std::uint64_t fromSeq = 1;
  std::uint64_t toSeq = 0;
};

struct SessionReplayResponse {
  SessionStatus status = SessionStatus::kFailed;
  std::string error;
  struct Entry {
    std::uint64_t seq = 0;
    std::string program;
  };
  std::vector<Entry> entries;
};

struct SessionCloseRequest {
  std::string tenant;
  std::string name;
};

struct SessionCloseResponse {
  SessionStatus status = SessionStatus::kFailed;
  std::string error;
  std::uint64_t mutationsApplied = 0;
  std::uint64_t plans = 0;
};

std::string encodeSessionOpenRequest(const SessionOpenRequest& request);
SessionOpenRequest decodeSessionOpenRequest(const std::string& payload);
std::string encodeSessionOpenResponse(const SessionOpenResponse& response);
SessionOpenResponse decodeSessionOpenResponse(const std::string& payload);
std::string encodeSessionMutateRequest(const SessionMutateRequest& request);
SessionMutateRequest decodeSessionMutateRequest(const std::string& payload);
std::string encodeSessionMutateResponse(const SessionMutateResponse& response);
SessionMutateResponse decodeSessionMutateResponse(const std::string& payload);
std::string encodeSessionReplayRequest(const SessionReplayRequest& request);
SessionReplayRequest decodeSessionReplayRequest(const std::string& payload);
std::string encodeSessionReplayResponse(const SessionReplayResponse& response);
SessionReplayResponse decodeSessionReplayResponse(const std::string& payload);
std::string encodeSessionCloseRequest(const SessionCloseRequest& request);
SessionCloseRequest decodeSessionCloseRequest(const std::string& payload);
std::string encodeSessionCloseResponse(const SessionCloseResponse& response);
SessionCloseResponse decodeSessionCloseResponse(const std::string& payload);

// --- Session replication --------------------------------------------------
//
// The primary ships each durably journaled mutation record to every standby
// before (quorum) or after (async) acking the client.  Frames carry the full
// open config so a standby can lazily create the session on first contact,
// and every frame carries the primary's session epoch: a standby whose own
// epoch is higher answers kStaleEpoch, which is the fence that stops a
// deposed primary from acking writes nobody replicates.

struct SessionReplAppendRequest {
  /// Open config (mirrors SessionOpenRequest): lets the standby create or
  /// config-check the session without a separate open exchange.
  std::string tenant;
  std::string name;
  std::uint32_t priority = 1;
  std::uint32_t weight = 1;
  std::string planner = "jsr";
  int stateCount = 8;
  int inputCount = 2;
  int outputCount = 2;
  std::uint64_t seed = 1;
  /// The shipping primary's session epoch (monotone; bumped on promotion).
  std::uint64_t epoch = 1;
  /// The journaled MutationRecord, field for field.
  std::uint64_t seq = 0;
  std::uint32_t deltaCount = 4;
  std::uint32_t newStateCount = 0;
  std::uint64_t mutationSeed = 0;
  bool defer = false;
};

struct SessionReplAppendResponse {
  SessionStatus status = SessionStatus::kFailed;
  std::string error;
  /// The standby's current epoch — on kStaleEpoch this tells the deposed
  /// primary how far behind it is (and that it must stop acking).
  std::uint64_t epoch = 0;
  /// The standby's accepted high-water mark after this frame; a gap
  /// (lastAccepted < seq - 1) tells the primary to resync via snapshot.
  std::uint64_t lastAccepted = 0;
};

struct SessionReplSnapshotRequest {
  std::string tenant;
  std::string name;
  std::uint64_t epoch = 1;
  /// Exact bytes of the primary's on-disk snapshot (magic + body + fnv1a64
  /// trailer); the standby verifies the trailer before installing, so a
  /// corrupted link can never seed a standby with junk.
  std::string snapshot;
};

struct SessionReplSnapshotResponse {
  SessionStatus status = SessionStatus::kFailed;
  std::string error;
  std::uint64_t epoch = 0;
  std::uint64_t lastAccepted = 0;
};

/// Role/epoch probe (`rfsmc session status`): which side of the replication
/// plane a session is on, and how far its replay has progressed.
struct SessionStatusRequest {
  std::string tenant;
  std::string name;
};

struct SessionStatusResponse {
  SessionStatus status = SessionStatus::kFailed;
  std::string error;
  std::string role;  ///< "primary" | "standby"
  std::uint64_t epoch = 0;
  std::uint64_t lastAccepted = 0;  ///< journaled high-water mark
  std::uint64_t applied = 0;       ///< warm-replay progress (== lastAccepted
                                   ///< when the standby is fully caught up)
};

std::string encodeSessionReplAppendRequest(
    const SessionReplAppendRequest& request);
SessionReplAppendRequest decodeSessionReplAppendRequest(
    const std::string& payload);
std::string encodeSessionReplAppendResponse(
    const SessionReplAppendResponse& response);
SessionReplAppendResponse decodeSessionReplAppendResponse(
    const std::string& payload);
std::string encodeSessionReplSnapshotRequest(
    const SessionReplSnapshotRequest& request);
SessionReplSnapshotRequest decodeSessionReplSnapshotRequest(
    const std::string& payload);
std::string encodeSessionReplSnapshotResponse(
    const SessionReplSnapshotResponse& response);
SessionReplSnapshotResponse decodeSessionReplSnapshotResponse(
    const std::string& payload);
std::string encodeSessionStatusRequest(const SessionStatusRequest& request);
SessionStatusRequest decodeSessionStatusRequest(const std::string& payload);
std::string encodeSessionStatusResponse(const SessionStatusResponse& response);
SessionStatusResponse decodeSessionStatusResponse(const std::string& payload);

// --- Version/feature handshake -------------------------------------------

/// The protocol generation this build speaks.  Bumped on any frame-layout
/// change that older peers cannot parse (the CRC32C trailer is generation
/// 1; generation 2 added the replication plane: SessionRepl*/SessionStatus
/// frames, the STALE_EPOCH verdict, and role/epoch fields on the stats
/// session rows — a generation-1 peer would misparse all three).
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Feature bits advertised in the handshake.
inline constexpr std::uint32_t kFeatureCrc32c = 1u << 0;

struct HandshakeRequest {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t features = kFeatureCrc32c;
};

struct HandshakeResponse {
  bool accepted = false;
  std::uint32_t version = kProtocolVersion;  ///< the server's generation
  std::uint32_t features = 0;  ///< requested features the server supports
  std::string error;           ///< refusal reason when !accepted
};

std::string encodeHandshakeRequest(const HandshakeRequest& request);
HandshakeRequest decodeHandshakeRequest(const std::string& payload);
std::string encodeHandshakeResponse(const HandshakeResponse& response);
HandshakeResponse decodeHandshakeResponse(const std::string& payload);

/// The server's answer to a handshake: refuses version mismatches (a peer
/// from another generation must not guess at frame layouts) and masks the
/// requested feature bits down to the supported set.  Free function so
/// downgrade behaviour is testable without a daemon.
HandshakeResponse answerHandshake(const HandshakeRequest& request);

/// The message type of a payload (its first u32); throws IpcError on an
/// unknown tag or an empty frame.
MessageType peekType(const std::string& payload);

}  // namespace rfsm::service
