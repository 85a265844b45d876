// End-to-end tests of the hardened planner service: real rfsmd worker
// subprocesses under the supervisor, crash/retry bit-identity, deadlines,
// load shedding, health, and graceful degradation.
//
// The rfsmd binary path comes from RFSM_RFSMD_BUILD_PATH (a CMake
// compile definition pointing at the build tree) or the RFSM_RFSMD
// environment variable.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "fsm/serialize.hpp"
#include "service/client.hpp"
#include "service/plan_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/metrics.hpp"
#include "util/supervisor.hpp"

#include "rfsmd_harness.hpp"

namespace rfsm {
namespace {

using namespace std::chrono_literals;

service::BatchSpec smallSpec() {
  service::BatchSpec spec;
  spec.stateCount = 8;
  spec.inputCount = 2;
  spec.outputCount = 2;
  spec.deltaCount = 6;
  spec.instanceCount = 10;
  spec.seed = 7;
  spec.planner = "greedy";
  return spec;
}

SupervisorOptions workerPool(int workers) {
  SupervisorOptions options;
  options.workerCommand = {rfsmdPath(), "--worker"};
  options.workers = workers;
  return options;
}

service::ServerOptions serverOptions(int workers, std::uint64_t shardSize) {
  service::ServerOptions options;
  options.workerBinary = rfsmdPath();
  options.shardSize = shardSize;
  options.pool = workerPool(workers);
  return options;
}

// --- Determinism foundations --------------------------------------------

TEST(Protocol, InstanceGenerationIsShardAgnostic) {
  const service::BatchSpec spec = smallSpec();
  // Generating instance 7 directly must equal generating it as part of any
  // enclosing sweep (makeInstance takes no mutable state).
  const MigrationContext direct = service::makeInstance(spec, 7);
  const MigrationContext again = service::makeInstance(spec, 7);
  EXPECT_EQ(toJson(direct.sourceMachine()), toJson(again.sourceMachine()));
  EXPECT_EQ(toJson(direct.targetMachine()), toJson(again.targetMachine()));
}

TEST(Protocol, PlanRangeShardsAreBitIdenticalToTheWhole) {
  const service::BatchSpec spec = smallSpec();
  const auto whole = service::planRange(spec, 0, spec.instanceCount);
  ASSERT_EQ(whole.size(), spec.instanceCount);
  // Any split must reproduce the same bytes per slot.
  for (const std::uint64_t cut : {1ull, 3ull, 7ull}) {
    auto left = service::planRange(spec, 0, cut);
    auto right = service::planRange(spec, cut, spec.instanceCount);
    left.insert(left.end(), right.begin(), right.end());
    EXPECT_EQ(left, whole) << "split at " << cut;
  }
}

TEST(Protocol, PlanRangeStopsAnEaInstanceAtItsDeadline) {
  // One EA instance that plans for seconds uncancelled: the deadline has to
  // stop it inside the EA's generation loop, not only between instances.
  service::BatchSpec spec = smallSpec();
  spec.stateCount = 24;
  spec.inputCount = 4;
  spec.deltaCount = 40;
  spec.instanceCount = 1;
  spec.planner = "ea";
  spec.eaGenerations = 100000;
  CancelToken cancel;
  const CancelToken::Clock::time_point deadline =
      CancelToken::Clock::now() + 30ms;
  cancel.setDeadline(deadline);
  try {
    service::planRange(spec, 0, spec.instanceCount, &cancel);
    ADD_FAILURE() << "the instance was planned to the end past its deadline";
  } catch (const BatchError& error) {
    ASSERT_EQ(error.failures().size(), 1u);
    EXPECT_TRUE(error.failures().front().cancelled);
  }
  EXPECT_LT(CancelToken::Clock::now() - deadline, 1s);
}

TEST(Protocol, UnknownPlannerThrows) {
  EXPECT_THROW(service::plannerFn("quantum"), Error);
}

// --- Supervisor with real workers ---------------------------------------

TEST(SupervisorWorkers, ShardRoundTripMatchesInProcess) {
  Supervisor supervisor(workerPool(2));
  const service::BatchSpec spec = smallSpec();
  service::ShardRequest shard;
  shard.spec = spec;
  shard.lo = 2;
  shard.hi = 6;
  auto future = supervisor.submit(service::encodeShardRequest(shard));
  const WorkResult result = future.get();
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  const auto response = service::decodeShardResponse(result.payload);
  ASSERT_EQ(response.status, WorkResult::Status::kOk) << response.error;
  EXPECT_EQ(response.programs, service::planRange(spec, 2, 6));
  EXPECT_EQ(result.attempts, 1);
}

TEST(SupervisorWorkers, CrashLoopingWorkerFailsOnlyItsItem) {
  // /bin/false execs fine and exits immediately: every attempt reads EOF.
  SupervisorOptions options;
  options.workerCommand = {"/bin/false"};
  options.workers = 1;
  options.maxAttempts = 2;
  options.backoffBase = 1ms;
  options.backoffCap = 5ms;
  options.restartLimit = 100;  // keep the pool "healthy" while it churns
  Supervisor supervisor(options);
  const WorkResult result = supervisor.submit("anything").get();
  EXPECT_EQ(result.status, WorkResult::Status::kFailed);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_GE(supervisor.health().crashes, 2u);
}

TEST(SupervisorWorkers, CrashStormTripsTheRestartBudget) {
  SupervisorOptions options;
  options.workerCommand = {"/bin/false"};
  options.workers = 1;
  options.maxAttempts = 3;
  options.backoffBase = 1ms;
  options.backoffCap = 2ms;
  options.restartLimit = 2;  // unhealthy after the 3rd crash in-window
  options.restartWindow = 60s;
  Supervisor supervisor(options);
  (void)supervisor.submit("first").get();
  EXPECT_FALSE(supervisor.health().healthy);
  // Once unhealthy, new work is refused up front.
  const WorkResult refused = supervisor.submit("second").get();
  EXPECT_EQ(refused.status, WorkResult::Status::kUnavailable);
}

TEST(SupervisorWorkers, ZeroCapacityQueueShedsEverything) {
  SupervisorOptions options = workerPool(1);
  options.queueCapacity = 0;
  Supervisor supervisor(options);
  const WorkResult result = supervisor.submit("work").get();
  EXPECT_EQ(result.status, WorkResult::Status::kShed);
  EXPECT_EQ(supervisor.health().shed, 1u);
}

TEST(SupervisorWorkers, ExpiredTokenResolvesWithoutAWorker) {
  Supervisor supervisor(workerPool(1));
  auto cancel = std::make_shared<CancelToken>();
  cancel->cancel();
  const WorkResult result = supervisor.submit("work", cancel).get();
  EXPECT_EQ(result.status, WorkResult::Status::kDeadlineExceeded);
}

TEST(SupervisorWorkers, ForcedUnhealthyRefusesAndRecovers) {
  Supervisor supervisor(workerPool(1));
  supervisor.forceUnhealthy();
  EXPECT_EQ(supervisor.submit("a").get().status,
            WorkResult::Status::kUnavailable);
  supervisor.clearUnhealthy();
  service::ShardRequest shard;
  shard.spec = smallSpec();
  shard.lo = 0;
  shard.hi = 1;
  EXPECT_EQ(supervisor.submit(service::encodeShardRequest(shard))
                .get()
                .status,
            WorkResult::Status::kOk);
}

// --- The server: shard/aggregate + fault scenarios -----------------------

TEST(Server, BatchMatchesInProcessPlanning) {
  service::Server server(serverOptions(2, 3));
  service::PlanRequest request;
  request.spec = smallSpec();
  const service::PlanResponse response = server.handlePlan(request);
  ASSERT_EQ(response.status, WorkResult::Status::kOk) << response.error;
  EXPECT_EQ(response.programs,
            service::planRange(request.spec, 0, request.spec.instanceCount));
  EXPECT_EQ(response.retries, 0u);
}

TEST(Server, KilledWorkerMidShardIsRetriedBitIdentically) {
  service::ServerOptions options = serverOptions(2, 4);
  options.scenario = *fault::serviceScenarioByName("kill-first-shard");
  options.pool.backoffBase = 1ms;
  options.pool.backoffCap = 10ms;
  service::Server server(std::move(options));
  service::PlanRequest request;
  request.spec = smallSpec();
  const service::PlanResponse response = server.handlePlan(request);
  ASSERT_EQ(response.status, WorkResult::Status::kOk) << response.error;
  // The kill cost exactly one retry and one crash — and zero bytes.
  EXPECT_EQ(response.retries, 1u);
  EXPECT_EQ(response.crashes, 1u);
  EXPECT_EQ(response.programs,
            service::planRange(request.spec, 0, request.spec.instanceCount));
}

TEST(Server, AbortedWorkerMidShardIsRetriedBitIdentically) {
  service::ServerOptions options = serverOptions(2, 4);
  options.scenario = *fault::serviceScenarioByName("abort-mid-shard");
  options.pool.backoffBase = 1ms;
  options.pool.backoffCap = 10ms;
  service::Server server(std::move(options));
  service::PlanRequest request;
  request.spec = smallSpec();
  const service::PlanResponse response = server.handlePlan(request);
  ASSERT_EQ(response.status, WorkResult::Status::kOk) << response.error;
  EXPECT_GE(response.retries, 1u);
  EXPECT_EQ(response.programs,
            service::planRange(request.spec, 0, request.spec.instanceCount));
}

TEST(Server, HungWorkerIsDestroyedAndTheShardRetried) {
  service::ServerOptions options = serverOptions(2, 4);
  options.scenario = *fault::serviceScenarioByName("hang-worker");
  options.pool.attemptTimeout = 300ms;  // detect the hang well inside budget
  options.pool.backoffBase = 1ms;
  options.pool.backoffCap = 10ms;
  service::Server server(std::move(options));
  service::PlanRequest request;
  request.spec = smallSpec();
  request.deadlineMs = 30000;
  const service::PlanResponse response = server.handlePlan(request);
  ASSERT_EQ(response.status, WorkResult::Status::kOk) << response.error;
  EXPECT_GE(response.retries, 1u);
  EXPECT_GE(response.crashes, 1u);  // the hung worker was killed, not joined
  EXPECT_EQ(response.programs,
            service::planRange(request.spec, 0, request.spec.instanceCount));
}

TEST(Server, TinyDeadlineReportsDeadlineExceeded) {
  service::Server server(serverOptions(2, 8));
  service::PlanRequest request;
  request.spec = smallSpec();
  request.spec.stateCount = 24;
  request.spec.deltaCount = 40;
  request.spec.inputCount = 4;
  request.spec.instanceCount = 64;
  request.spec.planner = "ea";
  request.deadlineMs = 30;
  const auto start = std::chrono::steady_clock::now();
  const service::PlanResponse response = server.handlePlan(request);
  EXPECT_EQ(response.status, WorkResult::Status::kDeadlineExceeded);
  EXPECT_TRUE(response.programs.empty());
  // Cooperative cancellation: the whole thing unwound in far less time
  // than planning 64 EA instances would take.
  EXPECT_LT(std::chrono::steady_clock::now() - start, 20s);
}

TEST(Server, UnhealthyPoolAnswersUnavailable) {
  service::ServerOptions options = serverOptions(1, 4);
  options.scenario = *fault::serviceScenarioByName("pool-unhealthy");
  service::Server server(std::move(options));
  service::PlanRequest request;
  request.spec = smallSpec();
  const service::PlanResponse response = server.handlePlan(request);
  EXPECT_EQ(response.status, WorkResult::Status::kUnavailable);
}

TEST(Server, EmptyBatchSucceedsTrivially) {
  service::Server server(serverOptions(1, 4));
  service::PlanRequest request;
  request.spec = smallSpec();
  request.spec.instanceCount = 0;
  const service::PlanResponse response = server.handlePlan(request);
  EXPECT_EQ(response.status, WorkResult::Status::kOk);
  EXPECT_TRUE(response.programs.empty());
}

// --- Client degradation ---------------------------------------------------

TEST(Client, MissingServerDegradesToInProcessPlanning) {
  service::ClientOptions options;
  options.socketPath = "/nonexistent/rfsmd.sock";
  std::ostringstream err;
  const service::ClientResult result =
      service::planBatch(smallSpec(), options, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.programs,
            service::planRange(smallSpec(), 0, smallSpec().instanceCount));
  EXPECT_NE(err.str().find("degrading to in-process"), std::string::npos);
}

TEST(Client, LocalDeadlineIsCooperative) {
  service::BatchSpec spec = smallSpec();
  spec.stateCount = 24;
  spec.deltaCount = 40;
  spec.inputCount = 4;
  spec.instanceCount = 64;
  spec.planner = "ea";
  const service::ClientResult result = service::planLocal(spec, 20, 1);
  EXPECT_EQ(result.status, WorkResult::Status::kDeadlineExceeded);
}

// --- Full socket path -----------------------------------------------------

TEST(Socket, PlanAndProbeOverUnixSocket) {
  const std::string path = freshSocketPath("e2e");
  service::ServerOptions options = serverOptions(2, 4);
  options.socketPath = path;
  RunningServer running(std::move(options));

  const auto health = service::probeHealth(path);
  ASSERT_TRUE(health.has_value());
  EXPECT_TRUE(health->healthy);
  EXPECT_EQ(health->workersConfigured, 2);

  service::ClientOptions client;
  client.socketPath = path;
  std::ostringstream err;
  const service::ClientResult result =
      service::planBatch(smallSpec(), client, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.programs,
            service::planRange(smallSpec(), 0, smallSpec().instanceCount));
  unlink(path.c_str());
}

// --- Content-addressed plan cache ---------------------------------------

/// RAII: enables the plan cache with a fresh state and guarantees it is
/// disabled (and emptied) afterwards, so this suite cannot leak cache
/// state into tests written against the off-by-default contract.
class PlanCacheScope {
 public:
  explicit PlanCacheScope(std::size_t capacity) {
    service::configurePlanCache(capacity);
    service::clearPlanCache();
  }
  ~PlanCacheScope() { service::configurePlanCache(0); }
};

TEST(PlanCache, DisabledByDefaultAndInvisible) {
  EXPECT_FALSE(service::planCacheEnabled());
  const std::uint64_t hits0 =
      metrics::counter(metrics::kServicePlanCacheHits).value();
  const std::uint64_t misses0 =
      metrics::counter(metrics::kServicePlanCacheMisses).value();
  const auto first = service::planRange(smallSpec(), 0, 4);
  const auto second = service::planRange(smallSpec(), 0, 4);
  EXPECT_EQ(first, second);
  // Disabled means invisible: no hit/miss accounting at all.
  EXPECT_EQ(metrics::counter(metrics::kServicePlanCacheHits).value(), hits0);
  EXPECT_EQ(metrics::counter(metrics::kServicePlanCacheMisses).value(),
            misses0);
}

TEST(PlanCache, WarmRunIsByteIdenticalToColdAndBypass) {
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  const std::uint64_t n = spec.instanceCount;
  // The bypass run is what a cache-free build would print.
  const auto reference = service::planRange(spec, 0, n, nullptr, 1,
                                            service::PlanCacheMode::kBypass);
  metrics::Counter& hits = metrics::counter(metrics::kServicePlanCacheHits);
  metrics::Counter& misses =
      metrics::counter(metrics::kServicePlanCacheMisses);
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();

  const auto cold = service::planRange(spec, 0, n);
  EXPECT_EQ(cold, reference);
  EXPECT_EQ(misses.value() - misses0, n);
  EXPECT_EQ(hits.value(), hits0);

  const auto warm = service::planRange(spec, 0, n);
  EXPECT_EQ(warm, reference);
  EXPECT_EQ(hits.value() - hits0, n);

  // Cache hits are byte-identical at every job count too.
  const auto warmParallel = service::planRange(spec, 0, n, nullptr, 3);
  EXPECT_EQ(warmParallel, reference);
}

TEST(PlanCache, PartiallyWarmRangeRecomputesOnlyTheGaps) {
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  const auto reference = service::planRange(
      spec, 0, spec.instanceCount, nullptr, 1,
      service::PlanCacheMode::kBypass);
  // Warm a hole-y subset: [2, 5) cached, the rest cold.
  (void)service::planRange(spec, 2, 5);
  metrics::Counter& hits = metrics::counter(metrics::kServicePlanCacheHits);
  const std::uint64_t hits0 = hits.value();
  const auto mixed = service::planRange(spec, 0, spec.instanceCount);
  EXPECT_EQ(mixed, reference);  // cached middle + recomputed edges
  EXPECT_EQ(hits.value() - hits0, 3u);
}

TEST(PlanCache, ServerSharesResultsAcrossRequests) {
  PlanCacheScope scope(256);
  const std::string path = freshSocketPath("plancache");
  service::ServerOptions options = serverOptions(2, 4);
  options.socketPath = path;
  RunningServer running(std::move(options));

  const service::BatchSpec spec = smallSpec();
  const auto reference = service::planRange(
      spec, 0, spec.instanceCount, nullptr, 1,
      service::PlanCacheMode::kBypass);
  service::ClientOptions client;
  client.socketPath = path;
  std::ostringstream err;

  // Cold: every instance planned by a worker subprocess, then stored by
  // the broker parent.
  const service::ClientResult first = service::planBatch(spec, client, err);
  ASSERT_EQ(first.status, WorkResult::Status::kOk) << first.error;
  EXPECT_EQ(first.programs, reference);

  // Warm: the parent serves the whole batch without re-planning — results
  // planned via worker A are visible to requests that would have gone to
  // worker B, because the cache lives above the pool.
  const service::ClientResult second = service::planBatch(spec, client, err);
  ASSERT_EQ(second.status, WorkResult::Status::kOk) << second.error;
  EXPECT_EQ(second.programs, reference);
  EXPECT_EQ(second.cacheHits, spec.instanceCount);
  unlink(path.c_str());
}

TEST(PlanCache, EvictionUnderPressureStaysCorrect) {
  PlanCacheScope scope(4);  // far smaller than the batch
  const service::BatchSpec spec = smallSpec();
  const auto reference = service::planRange(
      spec, 0, spec.instanceCount, nullptr, 1,
      service::PlanCacheMode::kBypass);
  metrics::Counter& evictions =
      metrics::counter(metrics::kServicePlanCacheEvictions);
  const std::uint64_t evictions0 = evictions.value();
  const auto cold = service::planRange(spec, 0, spec.instanceCount);
  EXPECT_EQ(cold, reference);
  EXPECT_GT(evictions.value(), evictions0);
  EXPECT_LE(service::planCacheSize(), 4u);
  // A churned cache degrades to recomputation, never to wrong bytes.
  const auto after = service::planRange(spec, 0, spec.instanceCount);
  EXPECT_EQ(after, reference);
}

TEST(PlanCache, KeySeparatesEveryPlanningField) {
  // Satellite audit: every BatchSpec field that can change the planned
  // bytes must change the key.  A field missing here would alias two
  // different computations onto one cache line.
  const service::BatchSpec base = smallSpec();
  std::vector<std::string> keys;
  keys.push_back(service::planCacheKey(base, 0));
  keys.push_back(service::planCacheKey(base, 1));  // index
  auto variant = [&](auto&& tweak) {
    service::BatchSpec spec = base;
    tweak(spec);
    keys.push_back(service::planCacheKey(spec, 0));
  };
  variant([](service::BatchSpec& s) { s.stateCount += 1; });
  variant([](service::BatchSpec& s) { s.inputCount += 1; });
  variant([](service::BatchSpec& s) { s.outputCount += 1; });
  variant([](service::BatchSpec& s) { s.deltaCount += 1; });
  variant([](service::BatchSpec& s) { s.newStateCount += 1; });
  variant([](service::BatchSpec& s) { s.seed += 1; });
  variant([](service::BatchSpec& s) { s.planner = "ea"; });
  variant([](service::BatchSpec& s) { s.eaPopulation += 1; });
  variant([](service::BatchSpec& s) { s.eaGenerations += 1; });
  std::set<std::string> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size())
      << "two planning-relevant variants share a cache key";

  // instanceCount is deliberately NOT keyed: instance k of a 10-batch and
  // of a 1000-batch are the same machine and the same plan — cross-batch
  // sharing is the point.
  service::BatchSpec bigger = base;
  bigger.instanceCount = base.instanceCount * 100;
  EXPECT_EQ(service::planCacheKey(bigger, 0),
            service::planCacheKey(base, 0));
}

TEST(PlanCache, EnvironmentConfiguration) {
  // Tool mains apply RFSM_PLAN_CACHE; the library never reads it on its
  // own.  Restore the pristine (unset, disabled) state on every path.
  ASSERT_EQ(unsetenv("RFSM_PLAN_CACHE"), 0);
  service::configurePlanCacheFromEnv();
  EXPECT_FALSE(service::planCacheEnabled());  // unset: no-op

  ASSERT_EQ(setenv("RFSM_PLAN_CACHE", "128", 1), 0);
  service::configurePlanCacheFromEnv();
  EXPECT_TRUE(service::planCacheEnabled());

  ASSERT_EQ(setenv("RFSM_PLAN_CACHE", "1", 1), 0);
  service::configurePlanCacheFromEnv();
  EXPECT_EQ(service::planCacheCapacity(), 1u);  // a number, not a switch

  ASSERT_EQ(setenv("RFSM_PLAN_CACHE", "0", 1), 0);
  service::configurePlanCacheFromEnv();
  EXPECT_FALSE(service::planCacheEnabled());  // explicit off

  ASSERT_EQ(setenv("RFSM_PLAN_CACHE", "on", 1), 0);
  service::configurePlanCacheFromEnv();
  EXPECT_TRUE(service::planCacheEnabled());  // non-numeric: default size

  ASSERT_EQ(unsetenv("RFSM_PLAN_CACHE"), 0);
  service::configurePlanCache(0);
}

TEST(Socket, UnhealthyServerTriggersClientDegradation) {
  const std::string path = freshSocketPath("degrade");
  service::ServerOptions options = serverOptions(1, 4);
  options.socketPath = path;
  options.scenario = *fault::serviceScenarioByName("pool-unhealthy");
  RunningServer running(std::move(options));

  service::ClientOptions client;
  client.socketPath = path;
  std::ostringstream err;
  const service::ClientResult result =
      service::planBatch(smallSpec(), client, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_TRUE(result.degraded);  // correct results despite the dead pool
  EXPECT_EQ(result.programs,
            service::planRange(smallSpec(), 0, smallSpec().instanceCount));
  // The notice carries the stable reason token, never the raw status or
  // errno text (scripts grep stderr; it must not vary by environment).
  EXPECT_NE(err.str().find("(unhealthy)"), std::string::npos);
  EXPECT_EQ(err.str().find("UNAVAILABLE"), std::string::npos);
  unlink(path.c_str());
}

}  // namespace
}  // namespace rfsm
