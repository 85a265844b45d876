// End-to-end tests of the cross-host planner fabric: sharding across real
// rfsmd servers, rerouting around dead endpoints, the full degradation
// ladder (fabric -> single endpoint -> in-process, byte-identical stdout at
// every rung), hedged requests against a slow endpoint, and quorum
// verification against a lying one.
//
// Misbehaving endpoints are played by FakeEndpoint, an in-test server that
// speaks the real wire protocol but can tamper with its replies, delay
// them, or hang up without answering.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "service/client.hpp"
#include "service/fabric.hpp"
#include "service/plan_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/breaker.hpp"
#include "util/ipc.hpp"
#include "util/metrics.hpp"

namespace rfsm {
namespace {

using namespace std::chrono_literals;

std::string rfsmdPath() {
  if (const char* env = std::getenv("RFSM_RFSMD")) return env;
#ifdef RFSM_RFSMD_BUILD_PATH
  return RFSM_RFSMD_BUILD_PATH;
#else
  return "rfsmd";
#endif
}

std::string freshSocketPath(const char* tag) {
  return "/tmp/rfsm-fabric-" + std::to_string(getpid()) + "-" + tag +
         ".sock";
}

service::BatchSpec smallSpec() {
  service::BatchSpec spec;
  spec.stateCount = 8;
  spec.inputCount = 2;
  spec.outputCount = 2;
  spec.deltaCount = 6;
  spec.instanceCount = 12;
  spec.seed = 11;
  spec.planner = "greedy";
  return spec;
}

service::ServerOptions serverOptions(const std::string& socketPath) {
  service::ServerOptions options;
  options.socketPath = socketPath;
  options.workerBinary = rfsmdPath();
  options.shardSize = 4;
  options.pool.workers = 2;
  return options;
}

struct RunningServer {
  service::Server server;
  CancelToken stop;
  std::thread thread;

  explicit RunningServer(service::ServerOptions options)
      : server(std::move(options)), thread([this] { server.run(&stop); }) {}
  ~RunningServer() {
    stop.cancel();
    thread.join();
  }
};

/// An in-test endpoint speaking the real plan protocol, with scripted
/// misbehaviour.  Honest replies are planRange's bytes — bit-identical to
/// any other correct party — so any observable difference is the fault
/// model, never the fake.
class FakeEndpoint {
 public:
  enum class Behavior {
    kHonest,       ///< correct bytes
    kTamper,       ///< appends junk to every program (a lying replica)
    kSlow,         ///< answers correctly after `delay`
    kSilent,       ///< accepts, reads, never answers
    kForgedCount,  ///< CRC-valid reply claiming 2^31 programs, sending none
  };

  FakeEndpoint(std::string path, Behavior behavior,
               std::chrono::milliseconds delay = 0ms)
      : path_(std::move(path)),
        behavior_(behavior),
        delay_(delay),
        listen_(ipc::listenUnix(path_)),
        thread_([this] { serve(); }) {}

  ~FakeEndpoint() {
    stop_.cancel();
    thread_.join();
    unlink(path_.c_str());
  }

  const std::string& path() const { return path_; }

 private:
  void serve() {
    while (!stop_.expired()) {
      CancelToken slice(200ms);
      auto connection = ipc::acceptUnix(listen_.get(), &slice);
      if (!connection.has_value()) continue;
      try {
        handle(connection->get());
      } catch (const Error&) {
        // Client went away (e.g. a cancelled hedge loser): next connection.
      }
    }
  }

  void handle(int fd) {
    std::string payload;
    CancelToken read(2000ms);
    if (ipc::readFrame(fd, payload, &read) != ipc::ReadStatus::kOk) return;
    const auto request = service::decodePlanRequest(payload);
    if (behavior_ == Behavior::kSilent) {
      // Hold the connection open until the client gives up.
      CancelToken hold(1000ms);
      std::string ignored;
      (void)ipc::readFrame(fd, ignored, &hold);
      return;
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    service::PlanResponse response;
    response.status = WorkResult::Status::kOk;
    if (behavior_ == Behavior::kForgedCount) {
      // The program count is the payload's last u32 (programs ride last).
      std::string forged = service::encodePlanResponse(response);
      forged.replace(forged.size() - 4, 4, std::string("\0\0\0\x80", 4));
      ipc::writeFrame(fd, forged);
      return;
    }
    // kBypass: the fake plays a *remote* process — it must not share (or
    // serve back) this process's plan cache, or a poisoned local entry
    // could vouch for itself in the cache-verification tests below.
    response.programs =
        service::planRange(request.spec, request.rangeLo(), request.rangeHi(),
                           nullptr, 1, service::PlanCacheMode::kBypass);
    if (behavior_ == Behavior::kTamper)
      for (std::string& program : response.programs)
        program += "# tampered\n";
    ipc::writeFrame(fd, service::encodePlanResponse(response));
  }

  std::string path_;
  Behavior behavior_;
  std::chrono::milliseconds delay_;
  ipc::Fd listen_;
  CancelToken stop_;
  std::thread thread_;
};

service::FabricOptions fastFabric(std::vector<ipc::Endpoint> endpoints) {
  service::FabricOptions options;
  options.endpoints = std::move(endpoints);
  options.backoffBase = 1ms;
  options.backoffCap = 5ms;
  return options;
}

std::size_t countOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++count;
  return count;
}

// --- Rung 1: healthy fabric ----------------------------------------------

TEST(Fabric, ShardsAcrossTwoServersBitIdentically) {
  const std::string pathA = freshSocketPath("a");
  const std::string pathB = freshSocketPath("b");
  RunningServer serverA(serverOptions(pathA));
  RunningServer serverB(serverOptions(pathB));

  const service::BatchSpec spec = smallSpec();
  service::Fabric fabric(fastFabric(
      {ipc::parseEndpoint(pathA), ipc::parseEndpoint(pathB)}));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_TRUE(err.str().empty()) << err.str();
  unlink(pathA.c_str());
  unlink(pathB.c_str());
}

TEST(Fabric, ReroutesAroundADeadEndpoint) {
  const std::string live = freshSocketPath("live");
  const std::string dead = freshSocketPath("dead");  // nobody listens here
  RunningServer server(serverOptions(live));

  const service::BatchSpec spec = smallSpec();
  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(dead), ipc::parseEndpoint(live)});
  options.shardSize = 3;  // several shards so the dead endpoint is hit
  options.breaker.failureThreshold = 2;
  metrics::Counter& rerouted = metrics::counter(metrics::kFabricRerouted);
  const std::uint64_t rerouted0 = rerouted.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_FALSE(result.degraded);  // rung 1 absorbed the failure
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_GT(rerouted.value(), rerouted0);
  // The dead endpoint's breaker tripped; the live one stayed closed.
  EXPECT_GE(fabric.breaker(0).trips(), 1u);
  EXPECT_EQ(fabric.breaker(1).trips(), 0u);
  unlink(live.c_str());
}

// --- The degradation ladder ----------------------------------------------

TEST(Fabric, FullLadderIsByteIdenticalWithOneNoticePerRung) {
  const std::string deadA = freshSocketPath("down-a");
  const std::string deadB = freshSocketPath("down-b");

  const service::BatchSpec spec = smallSpec();
  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(deadA), ipc::parseEndpoint(deadB)});
  options.breaker.failureThreshold = 1;
  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);

  // Every rung failed except the last: in-process planning, same bytes.
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  // Exactly one stderr notice per rung drop, with stable reason tokens.
  EXPECT_EQ(countOccurrences(
                err.str(),
                "planner fabric unavailable (unreachable); retrying via "
                "single endpoint"),
            1u)
      << err.str();
  EXPECT_EQ(countOccurrences(
                err.str(),
                "planner service unavailable (unreachable); degrading to "
                "in-process planning"),
            1u)
      << err.str();
}

TEST(Fabric, SingleHealthyEndpointServesRungTwo) {
  // Rung 1 collapses (the fabric's shards cannot complete while every
  // breaker is open from the dead endpoint's failures... ) — here we force
  // it by breaking one endpoint with failureThreshold 1 and routing the
  // fallback to the live one.
  const std::string dead = freshSocketPath("rung2-dead");
  const std::string live = freshSocketPath("rung2-live");
  RunningServer server(serverOptions(live));

  const service::BatchSpec spec = smallSpec();
  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(dead), ipc::parseEndpoint(live)});
  options.maxAttempts = 1;  // no rerouting: a dead primary sinks its shard
  options.shardSize = 3;
  options.breaker.failureThreshold = 1;
  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);

  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  // Rung 2 went to the live endpoint: the fabric notice fired, the
  // in-process notice did not.
  EXPECT_EQ(countOccurrences(err.str(), "planner fabric unavailable"), 1u)
      << err.str();
  EXPECT_EQ(countOccurrences(err.str(), "planner service unavailable"), 0u)
      << err.str();
  unlink(live.c_str());
}

TEST(Fabric, ForgedElementCountDegradesAsMalformedNotACrash) {
  // A CRC-valid reply whose program count promises 2^31 entries must fail
  // decoding with a typed error: each rung reports "malformed response" and
  // the in-process rung serves the same bytes a healthy fabric would.
  const service::BatchSpec spec = smallSpec();
  FakeEndpoint forger(freshSocketPath("forged"),
                      FakeEndpoint::Behavior::kForgedCount);
  service::Fabric fabric(fastFabric({ipc::parseEndpoint(forger.path())}));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);

  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount, nullptr, 1,
                               service::PlanCacheMode::kBypass));
  EXPECT_EQ(countOccurrences(err.str(),
                             "planner fabric unavailable (malformed "
                             "response); retrying via single endpoint"),
            1u)
      << err.str();
  EXPECT_EQ(countOccurrences(err.str(),
                             "planner service unavailable (malformed "
                             "response); degrading to in-process planning"),
            1u)
      << err.str();
}

// --- Hedged requests ------------------------------------------------------

TEST(Fabric, HedgesTailShardsToAFasterTwin) {
  const service::BatchSpec spec = smallSpec();
  FakeEndpoint slow(freshSocketPath("slow"), FakeEndpoint::Behavior::kSlow,
                    600ms);
  FakeEndpoint fast(freshSocketPath("fast"),
                    FakeEndpoint::Behavior::kHonest);

  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(slow.path()), ipc::parseEndpoint(fast.path())});
  options.shardSize = spec.instanceCount;  // one shard, primary = slow
  options.hedgeMs = 50;
  metrics::Counter& hedged = metrics::counter(metrics::kFabricHedged);
  metrics::Counter& hedgeWins =
      metrics::counter(metrics::kFabricHedgeWins);
  const std::uint64_t hedged0 = hedged.value();
  const std::uint64_t wins0 = hedgeWins.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_GT(hedged.value(), hedged0);
  EXPECT_GT(hedgeWins.value(), wins0);
}

// --- Quorum verification --------------------------------------------------

TEST(Fabric, QuorumCatchesALyingEndpointAndServesGroundTruth) {
  const service::BatchSpec spec = smallSpec();
  FakeEndpoint liar(freshSocketPath("liar"),
                    FakeEndpoint::Behavior::kTamper);
  FakeEndpoint honest(freshSocketPath("honest"),
                      FakeEndpoint::Behavior::kHonest);

  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(liar.path()),
       ipc::parseEndpoint(honest.path())});
  options.shardSize = spec.instanceCount;  // one (sampled) shard
  options.quorum = 2;
  metrics::Counter& mismatches =
      metrics::counter(metrics::kFabricQuorumMismatch);
  const std::uint64_t mismatches0 = mismatches.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);

  // The tampered reply was detected, never served: stdout is ground truth.
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_GT(mismatches.value(), mismatches0);
  // The liar is quarantined for subsequent batches; the honest endpoint
  // keeps serving.
  EXPECT_GE(fabric.breaker(0).trips(), 1u);
  EXPECT_EQ(fabric.breaker(1).trips(), 0u);
  EXPECT_EQ(fabric.breaker(0).state(), CircuitBreaker::State::kOpen);
}

TEST(Fabric, QuorumOfHonestEndpointsAgreesQuietly) {
  const service::BatchSpec spec = smallSpec();
  FakeEndpoint a(freshSocketPath("qa"), FakeEndpoint::Behavior::kHonest);
  FakeEndpoint b(freshSocketPath("qb"), FakeEndpoint::Behavior::kHonest);

  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(a.path()), ipc::parseEndpoint(b.path())});
  options.shardSize = spec.instanceCount;
  options.quorum = 2;
  metrics::Counter& mismatches =
      metrics::counter(metrics::kFabricQuorumMismatch);
  const std::uint64_t mismatches0 = mismatches.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_EQ(mismatches.value(), mismatches0);
  EXPECT_EQ(fabric.breaker(0).trips(), 0u);
  EXPECT_EQ(fabric.breaker(1).trips(), 0u);
}

// --- Plan cache on the fabric path ----------------------------------------

/// RAII twin of test_service's scope: fresh enabled cache, guaranteed
/// disabled afterwards.
class PlanCacheScope {
 public:
  explicit PlanCacheScope(std::size_t capacity) {
    service::configurePlanCache(capacity);
    service::clearPlanCache();
  }
  ~PlanCacheScope() { service::configurePlanCache(0); }
};

TEST(Fabric, WarmShardIsServedWithoutTouchingAnyEndpoint) {
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  const auto reference = service::planRange(
      spec, 0, spec.instanceCount, nullptr, 1,
      service::PlanCacheMode::kBypass);
  const std::string path = freshSocketPath("warm");
  service::Fabric fabric(fastFabric({ipc::parseEndpoint(path)}));
  std::ostringstream err;

  {
    FakeEndpoint endpoint(path, FakeEndpoint::Behavior::kHonest);
    const service::ClientResult cold = fabric.plan(spec, err);
    ASSERT_EQ(cold.status, WorkResult::Status::kOk) << cold.error;
    EXPECT_EQ(cold.programs, reference);
    EXPECT_EQ(cold.cacheHits, 0u);
  }  // the only endpoint is gone now

  // The warm batch can only succeed *undegraded* if no shard was
  // dispatched: every endpoint is dead, so any dispatch attempt would
  // descend the ladder and leave a notice.
  const service::ClientResult warm = fabric.plan(spec, err);
  ASSERT_EQ(warm.status, WorkResult::Status::kOk) << warm.error;
  EXPECT_EQ(warm.programs, reference);  // byte-identical to the cold path
  EXPECT_EQ(warm.cacheHits, spec.instanceCount);
  EXPECT_FALSE(warm.degraded);
  EXPECT_EQ(countOccurrences(err.str(), "planner fabric unavailable"), 0u);
}

TEST(Fabric, WarmShardsServeEvenWhenEveryEndpointIsDead) {
  // The cache sits above the degradation ladder: a fully-warm batch never
  // needs an endpoint, so it succeeds at rung one without a notice.
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  const auto reference = service::planRange(
      spec, 0, spec.instanceCount, nullptr, 1,
      service::PlanCacheMode::kBypass);
  (void)service::planRange(spec, 0, spec.instanceCount);  // warm it

  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(freshSocketPath("gone-a")),
       ipc::parseEndpoint(freshSocketPath("gone-b"))});
  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs, reference);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(countOccurrences(err.str(), "planner fabric unavailable"), 0u);
}

TEST(Fabric, TamperedCacheEntryIsDetectedQuarantinedAndNeverServed) {
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  const auto reference = service::planRange(
      spec, 0, spec.instanceCount, nullptr, 1,
      service::PlanCacheMode::kBypass);
  FakeEndpoint honest(freshSocketPath("cache-honest"),
                      FakeEndpoint::Behavior::kHonest);

  // Warm the cache honestly, then poison one entry in place — modeling a
  // corrupted or maliciously overwritten cache line.
  (void)service::planRange(spec, 0, spec.instanceCount);
  const std::string poisonedKey = service::planCacheKey(spec, 3);
  service::planCacheStore(poisonedKey, "# poisoned\n");

  service::FabricOptions options =
      fastFabric({ipc::parseEndpoint(honest.path())});
  options.shardSize = spec.instanceCount;  // one shard — always sampled
  options.quorum = 2;  // sampled cache hits get byte-verified
  metrics::Counter& poisoned =
      metrics::counter(metrics::kServicePlanCachePoisoned);
  const std::uint64_t poisoned0 = poisoned.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);

  // Detected, recomputed, and the poisoned bytes never reached stdout.
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs, reference);
  EXPECT_GT(poisoned.value(), poisoned0);
  // The quarantined entry was replaced by recomputed ground truth.
  const auto repaired = service::planCacheLookup(poisonedKey);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, reference[3]);
  // The honest replica that exposed the poison is not punished.
  EXPECT_EQ(fabric.breaker(0).trips(), 0u);
}

TEST(Fabric, CleanCacheHitsPassQuorumVerificationQuietly) {
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  FakeEndpoint honest(freshSocketPath("clean-honest"),
                      FakeEndpoint::Behavior::kHonest);
  (void)service::planRange(spec, 0, spec.instanceCount);  // honest warm

  service::FabricOptions options =
      fastFabric({ipc::parseEndpoint(honest.path())});
  options.shardSize = spec.instanceCount;
  options.quorum = 2;
  metrics::Counter& poisoned =
      metrics::counter(metrics::kServicePlanCachePoisoned);
  metrics::Counter& mismatches =
      metrics::counter(metrics::kFabricQuorumMismatch);
  const std::uint64_t poisoned0 = poisoned.value();
  const std::uint64_t mismatches0 = mismatches.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount, nullptr, 1,
                               service::PlanCacheMode::kBypass));
  EXPECT_EQ(poisoned.value(), poisoned0);
  EXPECT_EQ(mismatches.value(), mismatches0);
}

// --- Prefork --------------------------------------------------------------

TEST(Fabric, PreforkedServerWarmsWorkersBeforeFirstRequest) {
  const std::string path = freshSocketPath("prefork");
  service::ServerOptions options = serverOptions(path);
  options.pool.prefork = true;
  options.pool.warmupPayload = service::encodeWarmupRequest();
  metrics::Counter& preforked =
      metrics::counter(metrics::kServiceWorkersPreforked);
  const std::uint64_t preforked0 = preforked.value();

  RunningServer server(std::move(options));
  // Warm-up completes asynchronously in the slot threads; poll briefly.
  for (int spin = 0;
       spin < 100 && preforked.value() - preforked0 < 2; ++spin)
    std::this_thread::sleep_for(20ms);
  EXPECT_EQ(preforked.value() - preforked0, 2u);

  // The warmed pool serves a normal request.
  service::ClientOptions client;
  client.socketPath = path;
  std::ostringstream err;
  const service::ClientResult result =
      service::planBatch(smallSpec(), client, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_FALSE(result.degraded);
  unlink(path.c_str());
}

}  // namespace
}  // namespace rfsm
