// Lightweight planner telemetry: named counters, wall-clock timers, and
// log-scale latency histograms.
//
// Hot paths (decodeOrder, the planners' order scoring, validateProgram)
// bump process-wide atomic counters; planners time themselves with
// ScopedTimer and feed per-call latencies into histograms (p50/p90/p99).
// Benches and the CLI report render a snapshot as a markdown table, CSV,
// or JSON.  Everything is thread-safe: lookups take a registry mutex once
// (cache the returned reference in a static local on hot paths), updates
// are relaxed atomics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/histogram.hpp"

namespace rfsm::metrics {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1);
  std::uint64_t value() const;
  void reset();

 private:
  std::uint64_t value_ = 0;  // accessed via atomic_ref-style atomics
};

/// Accumulates wall-clock durations (call count + total nanoseconds).
class Timer {
 public:
  void record(std::chrono::nanoseconds elapsed);
  std::uint64_t count() const;
  std::chrono::nanoseconds total() const;
  void reset();

 private:
  std::uint64_t count_ = 0;
  std::uint64_t totalNs_ = 0;
};

/// Last-write-wins level gauge (queue depths, occupancy, worker counts).
/// A gauge that was never set is omitted from snapshots, like a zero
/// counter, so idle processes stay out of the sinks.
class Gauge {
 public:
  void set(std::int64_t value);
  void add(std::int64_t delta);
  std::int64_t value() const;
  /// True once set/add has been called (snapshot inclusion criterion —
  /// a gauge legitimately sitting at 0 still reports).
  bool touched() const;
  void reset();

 private:
  std::int64_t value_ = 0;   // accessed via atomic_ref-style atomics
  std::uint64_t writes_ = 0;
};

/// Records the lifetime of the guard into `timer`.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Registry lookup; creates the metric on first use.  The returned
/// reference stays valid for the whole process (entries are never erased;
/// resetAll zeroes values in place).
Counter& counter(const std::string& name);
Timer& timer(const std::string& name);
Histogram& histogram(const std::string& name);
Gauge& gauge(const std::string& name);
/// Sliding-window percentile histogram (util/histogram.hpp); the live
/// stats plane reads these, the cumulative `histogram` entries keep
/// feeding the at-exit sinks.
RollingHistogram& rolling(const std::string& name);

/// Point-in-time copy of every non-zero metric, sorted by name.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};
struct TimerSample {
  std::string name;
  std::uint64_t count = 0;
  double totalMs = 0.0;
};
struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  // Percentiles of the recorded nanosecond values, in milliseconds.
  double p50Ms = 0.0;
  double p90Ms = 0.0;
  double p99Ms = 0.0;
  double maxMs = 0.0;
};
struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};
struct RollingSample {
  std::string name;
  std::uint64_t count = 0;
  // Windowed percentiles of the recorded nanosecond values, in ms.
  double p50Ms = 0.0;
  double p90Ms = 0.0;
  double p99Ms = 0.0;
  double maxMs = 0.0;
  std::int64_t windowMs = 0;
};
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<TimerSample> timers;
  std::vector<HistogramSample> histograms;
  std::vector<RollingSample> rolling;
  bool empty() const {
    return counters.empty() && gauges.empty() && timers.empty() &&
           histograms.empty() && rolling.empty();
  }
};

Snapshot snapshot();

/// Zeroes every registered metric (references stay valid).
void resetAll();

/// Renders counters and timers as markdown tables; "" for an empty
/// snapshot.  Derived rates (the plan cache hit rate) are appended when
/// both ingredients are present.
std::string toMarkdown(const Snapshot& snapshot);

/// Machine-readable sinks, so bench sweeps can be diffed across commits.
/// CSV columns: kind,name,value,count,total_ms,p50_ms,p90_ms,p99_ms,max_ms
/// (each kind fills only its own columns; `rolling` rows carry their window
/// length, in ms, in the value column); fields are quoted per RFC 4180
/// when they contain commas, quotes, or newlines.  JSON is a single object
/// {"counters": {...}, "gauges": {...},
/// "timers": {name: {"count": n, "total_ms": x}},
/// "histograms": {name: {"count": n, "p50_ms": x, ...}},
/// "rolling": {name: {..., "window_ms": n}}}.  Both render "" for an empty
/// snapshot.
std::string toCsv(const Snapshot& snapshot);
std::string toJson(const Snapshot& snapshot);

// Canonical metric names used by the planning engine.
inline constexpr const char* kDecodeCalls = "planner.decode_calls";
inline constexpr const char* kProgramsValidated = "planner.programs_validated";

// Canonical histogram names of the planning and verification layers
// (values are nanoseconds; snapshots render percentiles in ms).
inline constexpr const char* kDecodeLatency = "planner.decode";
inline constexpr const char* kInstanceLatency = "batch.instance";
inline constexpr const char* kVerifyLatency = "verify.verify";
inline constexpr const char* kGenerationLatency = "ea.generation";

// The tracer's ring-buffer overflow count (util/trace.hpp).
inline constexpr const char* kTraceDropped = "trace.dropped";

// Canonical metric names used by the planner service (rfsmd) and its
// supervisor: shard retries/crashes/restarts, load shedding, deadline
// misses, and client-side degradation to in-process planning.
inline constexpr const char* kServiceRequests = "service.requests";
inline constexpr const char* kServiceShards = "service.shards";
inline constexpr const char* kServiceShardRetries = "service.shard_retries";
inline constexpr const char* kServiceWorkerCrashes = "service.worker_crashes";
inline constexpr const char* kServiceWorkerRestarts =
    "service.worker_restarts";
inline constexpr const char* kServiceShed = "service.requests_shed";
inline constexpr const char* kServiceDeadlineExceeded =
    "service.deadline_exceeded";
inline constexpr const char* kServiceDegraded = "service.degraded";
inline constexpr const char* kServiceWorkersPreforked =
    "service.workers_preforked";

// Content-addressed plan-result cache (service/plan_cache.hpp): per-instance
// rendered programs memoized across requests, workers, and fabric shards.
inline constexpr const char* kServicePlanCacheHits = "service.plan_cache_hits";
inline constexpr const char* kServicePlanCacheMisses =
    "service.plan_cache_misses";
inline constexpr const char* kServicePlanCacheEvictions =
    "service.plan_cache_evictions";
// Cache entries that failed quorum byte-verification: quarantined and
// recomputed, never served.
inline constexpr const char* kServicePlanCachePoisoned =
    "service.plan_cache_poisoned";

// Canonical metric names used by the cross-host planner fabric
// (src/service/fabric.hpp): shard routing, endpoint health, hedging, and
// quorum cross-checking.
inline constexpr const char* kFabricShards = "fabric.shards";
inline constexpr const char* kFabricRerouted = "fabric.rerouted";
inline constexpr const char* kFabricHedged = "fabric.hedged";
inline constexpr const char* kFabricHedgeWins = "fabric.hedge_wins";
inline constexpr const char* kFabricBreakerTrips = "fabric.breaker_trips";
inline constexpr const char* kFabricQuorumMismatch = "fabric.quorum_mismatch";
inline constexpr const char* kFabricDegraded = "fabric.degraded";
inline constexpr const char* kBatchInstanceFailures =
    "batch.instance_failures";
inline constexpr const char* kBatchCancelled = "batch.instances_cancelled";

// Canonical histogram names of the planner service (nanosecond values).
inline constexpr const char* kServiceRequestLatency = "service.request";
inline constexpr const char* kServiceShardLatency = "service.shard";

// Canonical metric names of the multi-tenant session layer
// (service/session.hpp): session lifecycle, streaming mutations, delta
// compaction, admission control, and crash recovery / graceful drain.
inline constexpr const char* kSessionOpened = "session.opened";
inline constexpr const char* kSessionResumed = "session.resumed";
inline constexpr const char* kSessionMutationsAccepted =
    "session.mutations_accepted";
inline constexpr const char* kSessionMutationsRejected =
    "session.mutations_rejected";
inline constexpr const char* kSessionPlans = "session.plans";
// Raw requested deltas that compaction folded away before planning
// (consecutive deferred mutations re-writing or reverting the same cells).
inline constexpr const char* kSessionDeltasCompacted =
    "session.deltas_compacted";
inline constexpr const char* kSessionSnapshots = "session.snapshots";
// Sessions rebuilt from journals/snapshots after a hot restart; the
// session-smoke CI job greps this nonzero after a SIGKILL.
inline constexpr const char* kSessionsRecovered = "service.sessions_recovered";
// Snapshot/journal files that failed to parse during recovery and were
// quarantined (renamed aside, never deleted).
inline constexpr const char* kSessionsQuarantined =
    "service.sessions_quarantined";
// Sessions persisted by a graceful SIGTERM drain.
inline constexpr const char* kSessionsDrained = "service.sessions_drained";
// In-flight requests completed (not abandoned) after the stop signal.
inline constexpr const char* kServiceDrainedRequests =
    "service.drained_requests";

// Canonical histogram names of the session layer (nanosecond values).
inline constexpr const char* kSessionMutateLatency = "session.mutate";
inline constexpr const char* kSessionPlanLatency = "session.plan";

// Canonical metric names used by the fault-tolerance subsystem.
inline constexpr const char* kFaultsInjected = "fault.flips_injected";
inline constexpr const char* kFaultsDetected = "fault.flips_detected";
inline constexpr const char* kIntegrityScans = "verify.integrity_scans";
inline constexpr const char* kConformanceRuns = "verify.conformance_runs";
inline constexpr const char* kVerifierCacheHits = "verify.version_cache_hits";
inline constexpr const char* kRecoveryResumes = "recovery.resumes";
inline constexpr const char* kRecoveryPatches = "recovery.patches";
inline constexpr const char* kRecoveryRollbacks = "recovery.rollbacks";

// Canonical names of the live telemetry plane (stats frame, `rfsmc
// stats`): stats/trace-dump request counts, level gauges, and the rolling
// (sliding-window) latency views.
inline constexpr const char* kServiceStatsRequests = "service.stats_requests";
inline constexpr const char* kServiceTraceDumps = "service.trace_dumps";
inline constexpr const char* kServiceWorkersAlive = "service.workers_alive";
inline constexpr const char* kServiceQueueDepth = "service.queue_depth";
inline constexpr const char* kServicePlanCacheSize =
    "service.plan_cache_size";
inline constexpr const char* kSessionsOpenGauge = "session.open_sessions";
inline constexpr const char* kSessionSchedulerDepth =
    "session.scheduler_depth";
// Rolling-window twins of the cumulative request/mutate histograms.
inline constexpr const char* kServiceRequestWindow = "service.request_window";
inline constexpr const char* kSessionMutateWindow = "session.mutate_window";
// Chaos-injection evidence (util/chaos): one bump per injected fault, so
// invariant sweeps can assert every scheduled fault was actually seen, plus
// the transport's count of frames rejected for bad CRC/length (util/ipc).
inline constexpr const char* kServiceChaosDiskFaults =
    "service.chaos_disk_faults";
inline constexpr const char* kServiceChaosNetFaults =
    "service.chaos_net_faults";
inline constexpr const char* kServiceFramesRejected =
    "service.frames_rejected";
// Session replication plane (service/repl.hpp): shipping volume, standby
// lag (gauges, refreshed at stats scrape), promotions after a primary
// loss, and the epoch fence firing against a deposed primary.  The
// failover-smoke CI job greps kServiceFailovers / kServiceStaleEpochRejected.
inline constexpr const char* kServiceReplRecordsShipped =
    "service.repl_records_shipped";
inline constexpr const char* kServiceReplSnapshotsShipped =
    "service.repl_snapshots_shipped";
inline constexpr const char* kServiceReplShipErrors =
    "service.repl_ship_errors";
inline constexpr const char* kServiceReplLagRecords =
    "service.repl_lag_records";
inline constexpr const char* kServiceReplLagMs = "service.repl_lag_ms";
inline constexpr const char* kServiceFailovers = "service.failovers";
inline constexpr const char* kServiceStaleEpochRejected =
    "service.stale_epoch_rejected";

/// Every canonical metric name above, in one list — the single source of
/// truth the naming-drift regression test diffs sink output against
/// (tests/test_metrics_names.cpp).  A name emitted by any sink or stderr
/// summary token that is not in this set is drift.
std::vector<std::string> canonicalNames();

}  // namespace rfsm::metrics
