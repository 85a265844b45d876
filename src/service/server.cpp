#include "service/server.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "service/plan_cache.hpp"
#include "util/breaker.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfsm::service {
namespace {

/// Merges per-shard outcomes by severity: deadline beats unavailability
/// beats plain failure beats success (see the header's precedence table).
WorkResult::Status merge(WorkResult::Status overall,
                         WorkResult::Status shard) {
  auto rank = [](WorkResult::Status status) {
    switch (status) {
      case WorkResult::Status::kDeadlineExceeded: return 3;
      case WorkResult::Status::kUnavailable: return 2;
      case WorkResult::Status::kShed: return 2;
      case WorkResult::Status::kFailed: return 1;
      case WorkResult::Status::kOk: return 0;
    }
    return 1;
  };
  return rank(shard) > rank(overall) ? shard : overall;
}

/// Builds the pool options before the Supervisor member is constructed:
/// the worker command is `<rfsmd> --worker`.
SupervisorOptions poolOptions(ServerOptions& options) {
  if (!options.workerBinary.empty())
    options.pool.workerCommand = {options.workerBinary, "--worker"};
  return options.pool;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      supervisor_(poolOptions(options_)),
      sessions_(std::make_unique<SessionService>(options_.sessions)),
      listen_(options_.socketPath.empty()
                  ? ipc::Fd()
                  : ipc::listenEndpoint(ipc::parseEndpoint(options_.socketPath))) {
  ipc::ignoreSigpipe();
  using Kind = fault::ServiceScenario::Kind;
  const fault::ServiceScenario& scenario = options_.scenario;
  switch (scenario.kind) {
    case Kind::kNone:
      break;
    case Kind::kUnhealthy:
      supervisor_.forceUnhealthy();
      break;
    case Kind::kKillWorker:
    case Kind::kAbortWorker:
    case Kind::kHangWorker: {
      const int signal = scenario.kind == Kind::kKillWorker ? SIGKILL
                         : scenario.kind == Kind::kAbortWorker ? SIGABRT
                                                               : SIGSTOP;
      const std::string name = scenario.name;
      // Dispatch ordinals are unique, so this fires exactly once.
      supervisor_.setDispatchHook(
          [signal, name](std::uint64_t ordinal, int pid) {
            if (ordinal != 0) return;
            trace::instant("service.fault_injected", "service",
                           {trace::Arg::str("scenario", name),
                            trace::Arg::num("pid",
                                            static_cast<std::int64_t>(pid))});
            ::kill(pid, signal);
          });
      break;
    }
  }
}

Server::~Server() = default;

PlanResponse Server::handlePlan(const PlanRequest& request) {
  static metrics::Counter& requests =
      metrics::counter(metrics::kServiceRequests);
  static metrics::Counter& shards = metrics::counter(metrics::kServiceShards);
  static metrics::Histogram& requestLatency =
      metrics::histogram(metrics::kServiceRequestLatency);
  static metrics::RollingHistogram& requestWindow =
      metrics::rolling(metrics::kServiceRequestWindow);
  requests.add();
  metrics::ScopedLatency latency(requestLatency);
  metrics::ScopedWindowLatency windowLatency(requestWindow);

  // Adopt the caller's distributed trace context (a no-op for the default
  // unsampled context): the plan span below parents under the client's —
  // or the fabric attempt's — span, and worker shards inherit the plan
  // span as *their* parent via thread-current context.
  trace::ContextScope contextScope(request.context);
  trace::ScopedSpan planSpan(
      "service.plan_request", "service",
      {trace::Arg::num("request_id", request.requestId),
       trace::Arg::num("instances", request.spec.instanceCount)});

  // One correlation id spans the whole request: every shard span, retry
  // instant, and the final verdict share it, so a Perfetto query for the
  // id reconstructs the request end to end.
  const std::uint64_t correlation = trace::newCorrelationId();
  trace::asyncBegin(
      "service.request", "service", correlation,
      {trace::Arg::num("request_id", request.requestId),
       trace::Arg::num("instances", request.spec.instanceCount),
       trace::Arg::str("planner", request.spec.planner),
       trace::Arg::num("deadline_ms", request.deadlineMs)});

  auto cancel = std::make_shared<CancelToken>();
  std::int64_t deadlineNs = 0;
  if (request.deadlineMs > 0) {
    const auto deadline = CancelToken::Clock::now() +
                          std::chrono::milliseconds(request.deadlineMs);
    cancel->setDeadline(deadline);
    deadlineNs = deadline.time_since_epoch().count();
  }

  // The request names a subrange [lo, hi) of the batch (the fabric's shard
  // unit; lo == hi == 0 is the whole batch).  Worker shards carry absolute
  // instance indices, so whatever slice of the batch this server plans is
  // byte-identical to the same slots of the unsharded planAll.
  const std::uint64_t rangeLo = request.rangeLo();
  const std::uint64_t rangeHi = request.rangeHi();
  if (rangeLo > rangeHi || rangeHi > request.spec.instanceCount) {
    PlanResponse malformed;
    malformed.status = WorkResult::Status::kFailed;
    malformed.error = "malformed plan range [" + std::to_string(rangeLo) +
                      ", " + std::to_string(rangeHi) + ") for " +
                      std::to_string(request.spec.instanceCount) +
                      " instances";
    trace::asyncEnd("service.request", "service", correlation,
                    {trace::Arg::str("status", "FAILED")});
    return malformed;
  }
  const std::uint64_t total = rangeHi - rangeLo;

  // Broker-in-parent plan cache: the parent consults the cache before
  // sharding and stores worker results after, so a plan computed by worker
  // A serves later requests without touching worker B (workers keep their
  // own caches disabled).  Only the uncached gaps are dispatched, sliced
  // into contiguous runs so each worker shard still carries absolute
  // [lo, hi) indices.
  std::vector<std::string> assembled(static_cast<std::size_t>(total));
  std::vector<bool> cached(static_cast<std::size_t>(total), false);
  std::uint64_t cacheHits = 0;
  if (planCacheEnabled()) {
    for (std::uint64_t k = rangeLo; k < rangeHi; ++k) {
      if (auto hit = planCacheLookup(planCacheKey(request.spec, k))) {
        assembled[static_cast<std::size_t>(k - rangeLo)] = *std::move(hit);
        cached[static_cast<std::size_t>(k - rangeLo)] = true;
        ++cacheHits;
      }
    }
  }

  // Baseline for the retry/crash accounting, taken before any shard is
  // dispatched: a worker can crash the instant its frame lands, well before
  // the aggregation loop below starts.
  const Supervisor::Health before = supervisor_.health();
  const std::uint64_t shardSize = std::max<std::uint64_t>(1, options_.shardSize);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  std::vector<std::future<WorkResult>> futures;
  std::uint64_t runLo = rangeLo;
  while (runLo < rangeHi) {
    if (cached[static_cast<std::size_t>(runLo - rangeLo)]) {
      ++runLo;
      continue;
    }
    std::uint64_t runHi = runLo + 1;
    while (runHi < rangeHi && !cached[static_cast<std::size_t>(runHi - rangeLo)])
      ++runHi;
    for (std::uint64_t lo = runLo; lo < runHi; lo += shardSize) {
      const std::uint64_t hi = std::min(runHi, lo + shardSize);
      ShardRequest shard;
      shard.spec = request.spec;
      shard.lo = lo;
      shard.hi = hi;
      shard.deadlineNs = deadlineNs;
      // The worker's service.worker_shard span parents under this
      // request's plan span (the thread-current context installed above).
      shard.context = trace::currentContext();
      shards.add();
      trace::asyncInstant("service.shard_submit", "service", correlation,
                          {trace::Arg::num("lo", lo), trace::Arg::num("hi", hi)});
      futures.push_back(supervisor_.submit(encodeShardRequest(shard), cancel));
      ranges.emplace_back(lo, hi);
    }
    runLo = runHi;
  }

  PlanResponse response;
  response.status = WorkResult::Status::kOk;
  response.cacheHits = cacheHits;
  std::vector<std::vector<std::string>> shardPrograms(futures.size());
  for (std::size_t k = 0; k < futures.size(); ++k) {
    WorkResult result = futures[k].get();
    WorkResult::Status shardStatus = result.status;
    std::string shardError = result.error;
    if (result.status == WorkResult::Status::kOk) {
      // Transport succeeded; the worker's own verdict is inside.
      try {
        ShardResponse shard = decodeShardResponse(result.payload);
        shardStatus = shard.status;
        shardError = shard.error;
        if (shard.status == WorkResult::Status::kOk) {
          if (shard.programs.size() !=
              static_cast<std::size_t>(ranges[k].second - ranges[k].first)) {
            shardStatus = WorkResult::Status::kFailed;
            shardError = "shard returned " +
                         std::to_string(shard.programs.size()) +
                         " programs for " +
                         std::to_string(ranges[k].second - ranges[k].first) +
                         " instances";
          } else {
            shardPrograms[k] = std::move(shard.programs);
          }
        }
      } catch (const Error& error) {
        shardStatus = WorkResult::Status::kFailed;
        shardError = std::string("malformed shard response: ") + error.what();
      }
    }
    if (shardStatus != WorkResult::Status::kOk && response.error.empty()) {
      response.error = "shard [" + std::to_string(ranges[k].first) + ", " +
                       std::to_string(ranges[k].second) + "): " +
                       std::string(toString(shardStatus)) +
                       (shardError.empty() ? "" : " - " + shardError);
    }
    response.status = merge(response.status, shardStatus);
    trace::asyncInstant(
        "service.shard_done", "service", correlation,
        {trace::Arg::num("lo", ranges[k].first),
         trace::Arg::str("status", toString(shardStatus)),
         trace::Arg::num("attempts",
                         static_cast<std::int64_t>(result.attempts))});
  }

  const Supervisor::Health after = supervisor_.health();
  response.retries = after.retries - before.retries;
  response.crashes = after.crashes - before.crashes;

  if (response.status == WorkResult::Status::kOk) {
    for (std::size_t k = 0; k < shardPrograms.size(); ++k) {
      for (std::size_t i = 0; i < shardPrograms[k].size(); ++i) {
        const std::uint64_t index = ranges[k].first + i;
        if (planCacheEnabled())
          planCacheStore(planCacheKey(request.spec, index),
                         shardPrograms[k][i]);
        assembled[static_cast<std::size_t>(index - rangeLo)] =
            std::move(shardPrograms[k][i]);
      }
    }
    response.programs = std::move(assembled);
  } else {
    if (response.status == WorkResult::Status::kDeadlineExceeded) {
      static metrics::Counter& deadlineExceeded =
          metrics::counter(metrics::kServiceDeadlineExceeded);
      deadlineExceeded.add();
    }
    // A failed request must not leave half-planned shards running: cancel
    // fans out to every queued twin of this request (already-running
    // workers hit their own deadline or finish into the void).
    cancel->cancel();
  }

  trace::asyncEnd("service.request", "service", correlation,
                  {trace::Arg::str("status", toString(response.status)),
                   trace::Arg::num("retries", response.retries),
                   trace::Arg::num("crashes", response.crashes),
                   trace::Arg::num("cache_hits", response.cacheHits)});
  return response;
}

HealthResponse Server::healthSnapshot() const {
  const Supervisor::Health health = supervisor_.health();
  HealthResponse response;
  response.healthy = health.healthy;
  response.workersAlive = health.workersAlive;
  response.workersConfigured = health.workersConfigured;
  response.queueDepth = health.queueDepth;
  response.crashes = health.crashes;
  response.retries = health.retries;
  response.shed = health.shed;
  return response;
}

StatsResponse Server::handleStats() {
  static metrics::Counter& scrapes =
      metrics::counter(metrics::kServiceStatsRequests);
  scrapes.add();

  StatsResponse stats;
  stats.pid = static_cast<std::int64_t>(::getpid());
  stats.uptimeMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - started_)
                       .count();
  stats.draining = draining_.load(std::memory_order_relaxed);
  stats.workers = healthSnapshot();
  stats.planCache.enabled = planCacheEnabled();
  stats.planCache.size = planCacheSize();
  stats.planCache.capacity = planCacheCapacity();
  for (const BreakerSnapshot& breaker : breakerSnapshots())
    stats.breakers.push_back(
        {breaker.name, toString(breaker.state), breaker.trips});
  sessions_->fillStats(stats);

  // Refresh the level gauges at scrape time, so both this frame's embedded
  // snapshot and any later at-exit sink report current occupancy.
  metrics::gauge(metrics::kServiceWorkersAlive)
      .set(stats.workers.workersAlive);
  metrics::gauge(metrics::kServiceQueueDepth)
      .set(static_cast<std::int64_t>(stats.workers.queueDepth));
  metrics::gauge(metrics::kServicePlanCacheSize)
      .set(static_cast<std::int64_t>(stats.planCache.size));
  metrics::gauge(metrics::kSessionsOpenGauge)
      .set(static_cast<std::int64_t>(stats.openSessions));
  metrics::gauge(metrics::kSessionSchedulerDepth)
      .set(static_cast<std::int64_t>(stats.schedulerDepth));
  stats.metrics = metrics::snapshot();
  return stats;
}

TraceDumpResponse Server::handleTraceDump(const TraceDumpRequest& request) {
  static metrics::Counter& dumps =
      metrics::counter(metrics::kServiceTraceDumps);
  dumps.add();
  TraceDumpResponse response;
  response.clientSteadyNs = request.clientSteadyNs;
  response.traceJson = trace::toJson();
  response.serverSteadyNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return response;
}

std::string Server::dispatch(const std::string& payload) {
  switch (peekType(payload)) {
    case MessageType::kHandshakeRequest:
      return encodeHandshakeResponse(
          answerHandshake(decodeHandshakeRequest(payload)));
    case MessageType::kHealthRequest:
      return encodeHealthResponse(healthSnapshot());
    case MessageType::kStatsRequest:
      decodeStatsRequest(payload);
      return encodeStatsResponse(handleStats());
    case MessageType::kTraceDumpRequest:
      return encodeTraceDumpResponse(
          handleTraceDump(decodeTraceDumpRequest(payload)));
    case MessageType::kPlanRequest:
      return encodePlanResponse(handlePlan(decodePlanRequest(payload)));
    case MessageType::kSessionOpenRequest:
      return encodeSessionOpenResponse(
          sessions_->open(decodeSessionOpenRequest(payload)));
    case MessageType::kSessionMutateRequest:
      return encodeSessionMutateResponse(
          sessions_->mutate(decodeSessionMutateRequest(payload)));
    case MessageType::kSessionReplayRequest:
      return encodeSessionReplayResponse(
          sessions_->replay(decodeSessionReplayRequest(payload)));
    case MessageType::kSessionCloseRequest:
      return encodeSessionCloseResponse(
          sessions_->close(decodeSessionCloseRequest(payload)));
    case MessageType::kSessionReplAppendRequest:
      return encodeSessionReplAppendResponse(
          sessions_->replAppend(decodeSessionReplAppendRequest(payload)));
    case MessageType::kSessionReplSnapshotRequest:
      return encodeSessionReplSnapshotResponse(
          sessions_->replInstall(decodeSessionReplSnapshotRequest(payload)));
    case MessageType::kSessionStatusRequest:
      return encodeSessionStatusResponse(
          sessions_->status(decodeSessionStatusRequest(payload)));
    default:
      throw ipc::IpcError("unexpected client message");
  }
}

void Server::handleConnection(int fd, CancelToken* cancel) {
  static metrics::Counter& drained =
      metrics::counter(metrics::kServiceDrainedRequests);
  // Many frames per connection (sessions stream); every read is bounded by
  // an idle deadline so a client that goes silent costs one timeout, and
  // the connection token lets the drain path wake idle readers.  One-shot
  // clients close after their reply — the next read sees EOF.
  for (;;) {
    cancel->setDeadline(CancelToken::Clock::now() +
                        std::chrono::milliseconds(30000));
    std::string payload;
    const ipc::ReadStatus status = ipc::readFrame(fd, payload, cancel);
    if (status != ipc::ReadStatus::kOk) return;
    // A frame already read is *in flight*: it runs to completion and its
    // reply is sent even when the drain starts underneath it — only then
    // does the loop observe the cancelled token and exit.
    const std::string reply = dispatch(payload);
    ipc::writeFrame(fd, reply);
    if (draining_.load(std::memory_order_relaxed)) {
      drained.add();
      drainedRequests_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Server::run(const CancelToken* stop) {
  RFSM_CHECK(listen_.valid(), "server has no listening socket");
  struct Handler {
    std::thread thread;
    std::shared_ptr<CancelToken> cancel;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Handler> handlers;
  const auto reap = [&handlers](bool all) {
    for (auto it = handlers.begin(); it != handlers.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = handlers.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (stop == nullptr || !stop->expired()) {
    // Poll-sliced accept so a cancelled stop token is honoured promptly.
    CancelToken slice(std::chrono::milliseconds(200));
    std::optional<ipc::Fd> connection = ipc::acceptUnix(listen_.get(), &slice);
    reap(false);
    if (!connection.has_value()) continue;
    if (handlers.size() >= options_.maxConnections) {
      // Shed by closing: the session client reconnects with backoff, and
      // resends are answered from the transcript.
      log(LogLevel::kWarn) << "rfsmd: connection limit ("
                           << options_.maxConnections << ") reached";
      continue;
    }
    Handler handler;
    handler.cancel = std::make_shared<CancelToken>();
    handler.done = std::make_shared<std::atomic<bool>>(false);
    auto fd = std::make_shared<ipc::Fd>(std::move(*connection));
    handler.thread = std::thread(
        [this, fd, cancel = handler.cancel, done = handler.done] {
          try {
            handleConnection(fd->get(), cancel.get());
          } catch (const Error& error) {
            // A malformed or torn request kills its connection, never the
            // server.
            log(LogLevel::kWarn)
                << "rfsmd: connection error: " << error.what();
          }
          done->store(true, std::memory_order_release);
        });
    handlers.push_back(std::move(handler));
  }

  // Graceful drain: stop admitting (the accept loop above has exited and
  // the session store turns new work away), complete what is in flight,
  // then persist.  In-flight work is bounded by its own request deadline.
  draining_.store(true, std::memory_order_relaxed);
  sessions_->beginDrain();
  for (Handler& handler : handlers) handler.cancel->cancel();
  reap(true);
  sessions_->drain();
}

}  // namespace rfsm::service
