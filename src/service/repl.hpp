// Primary -> standby WAL shipping for streaming sessions.
//
// The replication plane leans on the same determinism that makes crash
// recovery byte-identical (service/session.hpp): a session's transcript is
// a pure function of (open config, accepted mutation sequence), so
// replicating a session is nothing more than shipping the accepted
// MutationRecords in order.  A standby that journals and warm-replays the
// same records holds the same machine, the same programs, the same
// transcript — promotion is O(un-applied tail), not O(history).
//
// Every shipped frame carries the primary's session *epoch*, a monotone
// counter bumped on promotion.  The fencing rule is one comparison: a
// receiver whose epoch is higher answers kStaleEpoch and the sender must
// stop acking clients for that session (FenceFn).  That single rule is
// what makes failover safe against the classic split-brain: a deposed
// primary that comes back and keeps streaming is refused, counted
// (service.stale_epoch_rejected), and self-fences.
//
// Two durability modes (`--repl-ack`):
//
//   quorum  the record reaches *every* standby's journal durably before
//           the client is acked — an acked mutation survives the loss of
//           the primary, full stop.  Ships synchronously on the mutate
//           path, before the primary's own WAL append.
//   async   the primary acks after its local WAL append and ships from a
//           bounded in-order queue per replica; the loss window is the
//           queue (service.repl_lag_records / service.repl_lag_ms gauge
//           it).  A dropped or lost record surfaces on the standby as a
//           sequence gap, which the shipper heals with a snapshot install
//           plus tail replay (ResyncFn).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "util/ipc.hpp"

namespace rfsm::service {

/// Ack durability of the replication plane (`--repl-ack quorum|async`).
enum class ReplAck { kQuorum, kAsync };

/// Parses "quorum" / "async"; throws Error on anything else.
ReplAck replAckFromString(const std::string& name);
const char* toString(ReplAck ack);

/// Reconnect backoff of the replicator and SessionStream: backoffDelay
/// (util/backoff.hpp) doubling from kReconnectBackoffBase up to
/// kReconnectBackoffCap, with saltedJitter of the endpoint's name.
inline constexpr std::chrono::milliseconds kReconnectBackoffBase{20};
inline constexpr std::chrono::milliseconds kReconnectBackoffCap{1000};

struct ReplicatorOptions {
  std::vector<ipc::Endpoint> replicas;
  ReplAck ack = ReplAck::kQuorum;
  /// Transport retry budget per ship (reconnect + resend inside this).
  std::chrono::milliseconds retryFor{5000};
  /// Silence bound per reply read.
  std::chrono::milliseconds readTimeout{10000};
  /// Async mode: records a replica's queue holds before shipAsync starts
  /// refusing (the refused records become a gap the next resync heals).
  std::size_t maxQueue = 1024;
};

/// Outcome of one synchronous (quorum) ship.
struct ShipResult {
  bool ok = false;
  /// A standby holds a newer epoch: the caller must fence the session and
  /// refuse the client instead of acking.
  bool staleEpoch = false;
  std::uint64_t standbyEpoch = 0;
  std::string error;
};

/// Ships session WAL records (and resync snapshots) to a fixed set of
/// standby endpoints.  Thread-safe; one instance per SessionService.
class Replicator {
 public:
  /// Everything a gapped standby needs to catch up: the primary's current
  /// on-disk snapshot bytes (snapshot.snapshot empty when none exists) and
  /// every accepted record newer than it, in sequence order.
  struct ResyncBundle {
    SessionReplSnapshotRequest snapshot;
    std::vector<SessionReplAppendRequest> tail;
  };
  using ResyncFn = std::function<std::optional<ResyncBundle>(
      const std::string& tenant, const std::string& name)>;
  /// Invoked when a standby fences a ship: the service marks the session
  /// so no further client mutation is acked under the stale epoch.
  using FenceFn = std::function<void(const std::string& tenant,
                                     const std::string& name,
                                     std::uint64_t standbyEpoch)>;

  Replicator(ReplicatorOptions options, ResyncFn resync, FenceFn fence);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  ReplAck ackMode() const { return options_.ack; }
  std::size_t replicaCount() const;

  /// Quorum path: ships to every standby and blocks until each has acked
  /// durably, resyncing through reported gaps.  Call WITHOUT holding the
  /// session-store mutex.
  ShipResult shipSync(const SessionReplAppendRequest& request);

  /// Async path: enqueues in order and returns immediately.  False = the
  /// replica queues are full and the record was not enqueued (the standby
  /// will gap-detect; the next ship resyncs it).
  bool shipAsync(const SessionReplAppendRequest& request);

  /// Total records queued but not yet acked by their standby (async lag).
  std::uint64_t lagRecords() const;
  /// Age of the oldest queued record in milliseconds; 0 when idle.
  std::int64_t lagMs() const;
  /// Publishes lagRecords/lagMs into the service.repl_lag_* gauges.
  void refreshGauges() const;

 private:
  struct Link;

  /// Ships one append over one link, healing kBadSequence gaps via
  /// ResyncFn.  Transport errors inside the retry budget are absorbed;
  /// exhaustion surfaces in the result.
  ShipResult shipOne(Link& link, const SessionReplAppendRequest& request);
  std::string exchange(Link& link, const std::string& payload);
  void workerLoop(Link& link);

  ReplicatorOptions options_;
  ResyncFn resync_;
  FenceFn fence_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace rfsm::service
