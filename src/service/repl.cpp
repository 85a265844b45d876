#include "service/repl.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "util/breaker.hpp"
#include "util/chaos.hpp"
#include "util/deadline.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace rfsm::service {

ReplAck replAckFromString(const std::string& name) {
  if (name == "quorum") return ReplAck::kQuorum;
  if (name == "async") return ReplAck::kAsync;
  throw Error("unknown replication ack mode '" + name + "' (quorum|async)");
}

const char* toString(ReplAck ack) {
  switch (ack) {
    case ReplAck::kQuorum: return "quorum";
    case ReplAck::kAsync: return "async";
  }
  return "quorum";
}

std::chrono::milliseconds backoffDelay(std::uint32_t attempt,
                                       std::string_view salt) {
  std::int64_t delayMs = 20;
  for (std::uint32_t k = 0; k < attempt && delayMs < kReconnectBackoffCap.count();
       ++k)
    delayMs *= 2;
  delayMs = std::min<std::int64_t>(delayMs, kReconnectBackoffCap.count());
  const std::int64_t jitterSpan = delayMs / 4 + 1;
  const std::int64_t jitterMs = static_cast<std::int64_t>(
      fnv1a64(std::uint64_t{attempt}, fnv1a64(salt)) %
      static_cast<std::uint64_t>(jitterSpan));
  return std::chrono::milliseconds(delayMs + jitterMs);
}

/// One standby endpoint: a serialized connection, a health breaker (stats
/// visibility + fast-fail while the standby is down), and — in async mode —
/// a bounded in-order queue drained by a dedicated worker.
struct Replicator::Link {
  explicit Link(ipc::Endpoint e)
      : endpoint(std::move(e)),
        registration("repl:" + endpoint.describe(), &breaker) {}

  ipc::Endpoint endpoint;
  CircuitBreaker breaker;
  BreakerRegistration registration;

  /// Serializes connection use (quorum ships may race the stats path).
  std::mutex ioMutex;
  ipc::Fd conn;

  /// Async queue, in ship order; timestamps feed the lag gauge.
  struct Item {
    SessionReplAppendRequest request;
    std::chrono::steady_clock::time_point enqueued;
  };
  std::mutex queueMutex;
  std::condition_variable queueCv;
  std::deque<Item> queue;
  bool stopping = false;
  std::thread worker;
};

Replicator::Replicator(ReplicatorOptions options, ResyncFn resync,
                       FenceFn fence)
    : options_(std::move(options)),
      resync_(std::move(resync)),
      fence_(std::move(fence)) {
  ipc::ignoreSigpipe();
  for (const ipc::Endpoint& endpoint : options_.replicas)
    links_.push_back(std::make_unique<Link>(endpoint));
  if (options_.ack == ReplAck::kAsync) {
    for (auto& link : links_)
      link->worker = std::thread([this, raw = link.get()] {
        workerLoop(*raw);
      });
  }
}

Replicator::~Replicator() {
  for (auto& link : links_) {
    {
      std::lock_guard lock(link->queueMutex);
      link->stopping = true;
    }
    link->queueCv.notify_all();
  }
  for (auto& link : links_)
    if (link->worker.joinable()) link->worker.join();
}

std::size_t Replicator::replicaCount() const { return links_.size(); }

std::string Replicator::exchange(Link& link, const std::string& payload) {
  // The whole exchange runs under the repl-link chaos tag, so the
  // repl-light/repl-storm profiles disturb exactly this traffic.
  chaos::ScopedReplLink replTag;
  const auto deadline = std::chrono::steady_clock::now() + options_.retryFor;
  std::uint32_t attempt = 0;
  std::string lastError = "not connected";
  for (;;) {
    {
      // Shutdown must interrupt the retry ladder: ~Replicator joins the
      // async workers, and a worker mid-retryFor against a dead standby
      // would otherwise stall the join for the whole budget.
      std::lock_guard stop(link.queueMutex);
      if (link.stopping) throw ipc::IpcError("replicator stopping");
    }
    try {
      if (!link.conn.valid())
        link.conn = ipc::connectEndpoint(link.endpoint, 1000);
      else if (ipc::pendingInput(link.conn.get())) {
        // A stale queued frame (duplicate from a chaos-injected resend)
        // would pair with this request: reconnect instead of misparing.
        lastError = "repl link desynchronized (unexpected pending frame)";
        link.conn.reset();
        link.conn = ipc::connectEndpoint(link.endpoint, 1000);
      }
      ipc::writeFrame(link.conn.get(), payload);
      CancelToken token(options_.readTimeout);
      std::string reply;
      const ipc::ReadStatus status =
          ipc::readFrame(link.conn.get(), reply, &token);
      if (status == ipc::ReadStatus::kOk) return reply;
      lastError = status == ipc::ReadStatus::kEof ? "connection closed"
                                                  : "reply timeout";
      link.conn.reset();
    } catch (const ipc::IpcError& error) {
      lastError = error.what();
      link.conn.reset();
    }
    // Resending is safe: standbys answer duplicate sequence numbers
    // idempotently, exactly like the client-facing session path.
    const auto delay = backoffDelay(attempt++, link.endpoint.describe());
    if (std::chrono::steady_clock::now() + delay >= deadline)
      throw ipc::IpcError("standby " + link.endpoint.describe() +
                          " unreachable: " + lastError);
    // Interruptible backoff: the destructor's stop flag cuts the sleep
    // short instead of serving it out against a standby that is gone.
    std::unique_lock stop(link.queueMutex);
    if (link.queueCv.wait_for(stop, delay, [&] { return link.stopping; }))
      throw ipc::IpcError("replicator stopping");
  }
}

ShipResult Replicator::shipOne(Link& link,
                               const SessionReplAppendRequest& request) {
  static metrics::Counter& shipped =
      metrics::counter(metrics::kServiceReplRecordsShipped);
  static metrics::Counter& snapshots =
      metrics::counter(metrics::kServiceReplSnapshotsShipped);
  static metrics::Counter& errors =
      metrics::counter(metrics::kServiceReplShipErrors);
  ShipResult result;
  std::lock_guard io(link.ioMutex);
  if (!link.breaker.allowRequest()) {
    errors.add();
    result.error = "standby " + link.endpoint.describe() + " breaker open";
    return result;
  }
  try {
    SessionReplAppendResponse response = decodeSessionReplAppendResponse(
        exchange(link, encodeSessionReplAppendRequest(request)));
    if (response.status == SessionStatus::kBadSequence) {
      // The standby is gapped (fresh, wiped, or behind an async drop):
      // install the current snapshot, replay the tail, retry the record.
      const std::optional<ResyncBundle> bundle =
          resync_ ? resync_(request.tenant, request.name) : std::nullopt;
      if (bundle.has_value()) {
        if (!bundle->snapshot.snapshot.empty()) {
          const SessionReplSnapshotResponse installed =
              decodeSessionReplSnapshotResponse(exchange(
                  link, encodeSessionReplSnapshotRequest(bundle->snapshot)));
          if (installed.status == SessionStatus::kOk) snapshots.add();
        }
        for (const SessionReplAppendRequest& rec : bundle->tail) {
          if (rec.seq >= request.seq) break;  // the retry below ships it
          decodeSessionReplAppendResponse(
              exchange(link, encodeSessionReplAppendRequest(rec)));
        }
        response = decodeSessionReplAppendResponse(
            exchange(link, encodeSessionReplAppendRequest(request)));
      }
    }
    link.breaker.recordSuccess();
    switch (response.status) {
      case SessionStatus::kOk:
      case SessionStatus::kAccepted:
        shipped.add();
        result.ok = true;
        break;
      case SessionStatus::kStaleEpoch:
        result.staleEpoch = true;
        result.standbyEpoch = response.epoch;
        result.error = response.error;
        if (fence_) fence_(request.tenant, request.name, response.epoch);
        break;
      default:
        errors.add();
        result.error = "standby " + link.endpoint.describe() + " refused: " +
                       std::string(toString(response.status)) +
                       (response.error.empty() ? "" : " (" + response.error +
                                                          ")");
        break;
    }
  } catch (const ipc::IpcError& error) {
    link.breaker.recordFailure();
    errors.add();
    result.error = error.what();
  }
  return result;
}

ShipResult Replicator::shipSync(const SessionReplAppendRequest& request) {
  ShipResult aggregate;
  aggregate.ok = true;
  for (auto& link : links_) {
    const ShipResult one = shipOne(*link, request);
    if (one.staleEpoch) return one;  // fencing beats everything
    if (!one.ok) {
      aggregate.ok = false;
      if (aggregate.error.empty()) aggregate.error = one.error;
    }
  }
  return aggregate;
}

bool Replicator::shipAsync(const SessionReplAppendRequest& request) {
  const auto now = std::chrono::steady_clock::now();
  bool enqueuedAll = true;
  for (auto& link : links_) {
    std::lock_guard lock(link->queueMutex);
    if (link->queue.size() >= options_.maxQueue) {
      enqueuedAll = false;  // the standby gap-detects and resyncs later
      continue;
    }
    link->queue.push_back(Link::Item{request, now});
    link->queueCv.notify_one();
  }
  return enqueuedAll;
}

void Replicator::workerLoop(Link& link) {
  for (;;) {
    Link::Item item;
    {
      std::unique_lock lock(link.queueMutex);
      link.queueCv.wait(lock,
                        [&] { return link.stopping || !link.queue.empty(); });
      if (link.queue.empty()) return;  // stopping and drained
      item = link.queue.front();
      link.queue.pop_front();
    }
    const ShipResult result = shipOne(link, item.request);
    if (!result.ok && !result.staleEpoch) {
      // Keep order: push the record back and retry after a breather —
      // a dead standby shows up as lag, not as silent divergence.  Unless
      // we are shutting down, in which case the queue is abandoned (the
      // standby resyncs from the next primary incarnation).
      std::unique_lock lock(link.queueMutex);
      if (link.stopping) return;
      link.queue.push_front(item);
      link.queueCv.wait_for(lock, backoffDelay(3, link.endpoint.describe()),
                            [&] { return link.stopping; });
      if (link.stopping) return;
    }
  }
}

std::uint64_t Replicator::lagRecords() const {
  std::uint64_t total = 0;
  for (const auto& link : links_) {
    std::lock_guard lock(link->queueMutex);
    total += link->queue.size();
  }
  return total;
}

std::int64_t Replicator::lagMs() const {
  const auto now = std::chrono::steady_clock::now();
  std::int64_t worst = 0;
  for (const auto& link : links_) {
    std::lock_guard lock(link->queueMutex);
    if (link->queue.empty()) continue;
    const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
                         now - link->queue.front().enqueued)
                         .count();
    worst = std::max<std::int64_t>(worst, age);
  }
  return worst;
}

void Replicator::refreshGauges() const {
  metrics::gauge(metrics::kServiceReplLagRecords)
      .set(static_cast<std::int64_t>(lagRecords()));
  metrics::gauge(metrics::kServiceReplLagMs).set(lagMs());
}

}  // namespace rfsm::service
