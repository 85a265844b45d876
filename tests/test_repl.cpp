// The hot-standby replication plane, bottom to top: the SessionRepl* wire
// frames, the shared reconnect-backoff ladder, the repl-link chaos
// profiles, epoch fencing and warm replay inside SessionService
// (replAppend / replInstall / promotion), async-lag visibility in the
// Replicator, and — the headline contract — an in-process primary quorum-
// shipping to a real rfsmd standby, failing over, and producing a
// byte-identical transcript while the deposed primary is fenced.
//
// The rfsmd binary path comes from RFSM_RFSMD_BUILD_PATH (a CMake
// target-file definition) or the RFSM_RFSMD environment override.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/repl.hpp"
#include "service/session.hpp"
#include "util/backoff.hpp"
#include "util/chaos.hpp"
#include "util/check.hpp"
#include "util/fsio.hpp"
#include "util/ipc.hpp"
#include "util/metrics.hpp"

#include "rfsmd_harness.hpp"

namespace rfsm {
namespace {

using namespace std::chrono_literals;
using service::MutationRecord;
using service::PlanOutcome;
using service::ReplAck;
using service::Replicator;
using service::ReplicatorOptions;
using service::SessionConfig;
using service::SessionEngine;
using service::SessionService;
using service::SessionServiceOptions;
using service::SessionStatus;

SessionConfig smallConfig(const std::string& tenant = "t",
                          const std::string& name = "s") {
  SessionConfig config;
  config.tenant = tenant;
  config.name = name;
  config.stateCount = 6;
  config.inputCount = 2;
  config.outputCount = 2;
  config.seed = 7;
  config.planner = "jsr";
  return config;
}

MutationRecord mut(std::uint64_t seq, bool defer = false,
                   std::uint32_t deltas = 3) {
  MutationRecord rec;
  rec.seq = seq;
  rec.deltaCount = deltas;
  rec.mutationSeed = 500 + seq;
  rec.defer = defer;
  return rec;
}

service::SessionOpenRequest openRequestFor(const SessionConfig& config) {
  service::SessionOpenRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.priority = static_cast<std::uint32_t>(config.priority);
  request.weight = static_cast<std::uint32_t>(config.weight);
  request.planner = config.planner;
  request.stateCount = config.stateCount;
  request.inputCount = config.inputCount;
  request.outputCount = config.outputCount;
  request.seed = config.seed;
  return request;
}

service::SessionMutateRequest mutateRequestFor(const SessionConfig& config,
                                               const MutationRecord& rec) {
  service::SessionMutateRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.seq = rec.seq;
  request.deltaCount = rec.deltaCount;
  request.newStateCount = rec.newStateCount;
  request.mutationSeed = rec.mutationSeed;
  request.defer = rec.defer;
  return request;
}

/// What the primary's Replicator ships for one accepted record.
service::SessionReplAppendRequest replRequestFor(const SessionConfig& config,
                                                 std::uint64_t epoch,
                                                 const MutationRecord& rec) {
  service::SessionReplAppendRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.priority = static_cast<std::uint32_t>(config.priority);
  request.weight =
      static_cast<std::uint32_t>(std::max(1, static_cast<int>(config.weight)));
  request.planner = config.planner;
  request.stateCount = config.stateCount;
  request.inputCount = config.inputCount;
  request.outputCount = config.outputCount;
  request.seed = config.seed;
  request.epoch = epoch;
  request.seq = rec.seq;
  request.deltaCount = rec.deltaCount;
  request.newStateCount = rec.newStateCount;
  request.mutationSeed = rec.mutationSeed;
  request.defer = rec.defer;
  return request;
}

/// Polls `status` until the warm replay has caught its journal (applied ==
/// lastAccepted) or the deadline passes.
service::SessionStatusResponse awaitCaughtUp(SessionService& store,
                                             const SessionConfig& config) {
  service::SessionStatusRequest probe{config.tenant, config.name};
  service::SessionStatusResponse status;
  for (int spin = 0; spin < 400; ++spin) {
    status = store.status(probe);
    if (status.status == SessionStatus::kOk &&
        status.applied == status.lastAccepted)
      return status;
    std::this_thread::sleep_for(10ms);
  }
  return status;
}

// --- Wire frames ----------------------------------------------------------

TEST(ReplProtocol, AppendFramesRoundTrip) {
  service::SessionReplAppendRequest request;
  request.tenant = "acme";
  request.name = "press";
  request.priority = 2;
  request.weight = 3;
  request.planner = "astar";
  request.stateCount = 9;
  request.inputCount = 3;
  request.outputCount = 2;
  request.seed = 41;
  request.epoch = 6;
  request.seq = 17;
  request.deltaCount = 5;
  request.newStateCount = 11;
  request.mutationSeed = 999;
  request.defer = true;
  const auto back = service::decodeSessionReplAppendRequest(
      service::encodeSessionReplAppendRequest(request));
  EXPECT_EQ(back.tenant, "acme");
  EXPECT_EQ(back.name, "press");
  EXPECT_EQ(back.priority, 2u);
  EXPECT_EQ(back.weight, 3u);
  EXPECT_EQ(back.planner, "astar");
  EXPECT_EQ(back.stateCount, 9);
  EXPECT_EQ(back.inputCount, 3);
  EXPECT_EQ(back.outputCount, 2);
  EXPECT_EQ(back.seed, 41u);
  EXPECT_EQ(back.epoch, 6u);
  EXPECT_EQ(back.seq, 17u);
  EXPECT_EQ(back.deltaCount, 5u);
  EXPECT_EQ(back.newStateCount, 11u);
  EXPECT_EQ(back.mutationSeed, 999u);
  EXPECT_TRUE(back.defer);

  service::SessionReplAppendResponse response;
  response.status = SessionStatus::kStaleEpoch;
  response.error = "stale";
  response.epoch = 7;
  response.lastAccepted = 16;
  const auto responseBack = service::decodeSessionReplAppendResponse(
      service::encodeSessionReplAppendResponse(response));
  EXPECT_EQ(responseBack.status, SessionStatus::kStaleEpoch);
  EXPECT_EQ(responseBack.error, "stale");
  EXPECT_EQ(responseBack.epoch, 7u);
  EXPECT_EQ(responseBack.lastAccepted, 16u);
  EXPECT_STREQ(toString(SessionStatus::kStaleEpoch), "STALE_EPOCH");
}

TEST(ReplProtocol, SnapshotFramesRoundTrip) {
  service::SessionReplSnapshotRequest request;
  request.tenant = "acme";
  request.name = "press";
  request.epoch = 4;
  request.snapshot = std::string("rfsm-snap\x00\x01\xff"
                                 "bytes",
                                 16);
  const auto back = service::decodeSessionReplSnapshotRequest(
      service::encodeSessionReplSnapshotRequest(request));
  EXPECT_EQ(back.tenant, "acme");
  EXPECT_EQ(back.name, "press");
  EXPECT_EQ(back.epoch, 4u);
  EXPECT_EQ(back.snapshot, request.snapshot);  // binary-clean

  service::SessionReplSnapshotResponse response;
  response.status = SessionStatus::kOk;
  response.epoch = 4;
  response.lastAccepted = 12;
  const auto responseBack = service::decodeSessionReplSnapshotResponse(
      service::encodeSessionReplSnapshotResponse(response));
  EXPECT_EQ(responseBack.status, SessionStatus::kOk);
  EXPECT_EQ(responseBack.epoch, 4u);
  EXPECT_EQ(responseBack.lastAccepted, 12u);
}

TEST(ReplProtocol, StatusFramesRoundTrip) {
  service::SessionStatusRequest request;
  request.tenant = "acme";
  request.name = "press";
  const auto back = service::decodeSessionStatusRequest(
      service::encodeSessionStatusRequest(request));
  EXPECT_EQ(back.tenant, "acme");
  EXPECT_EQ(back.name, "press");

  service::SessionStatusResponse response;
  response.status = SessionStatus::kOk;
  response.role = "standby";
  response.epoch = 3;
  response.lastAccepted = 9;
  response.applied = 8;
  const auto responseBack = service::decodeSessionStatusResponse(
      service::encodeSessionStatusResponse(response));
  EXPECT_EQ(responseBack.status, SessionStatus::kOk);
  EXPECT_EQ(responseBack.role, "standby");
  EXPECT_EQ(responseBack.epoch, 3u);
  EXPECT_EQ(responseBack.lastAccepted, 9u);
  EXPECT_EQ(responseBack.applied, 8u);
}

TEST(ReplProtocol, PeekTypeIdentifiesReplFrames) {
  using service::MessageType;
  EXPECT_EQ(service::peekType(service::encodeSessionReplAppendRequest({})),
            MessageType::kSessionReplAppendRequest);
  EXPECT_EQ(service::peekType(service::encodeSessionReplAppendResponse({})),
            MessageType::kSessionReplAppendResponse);
  EXPECT_EQ(service::peekType(service::encodeSessionReplSnapshotRequest({})),
            MessageType::kSessionReplSnapshotRequest);
  EXPECT_EQ(service::peekType(service::encodeSessionReplSnapshotResponse({})),
            MessageType::kSessionReplSnapshotResponse);
  EXPECT_EQ(service::peekType(service::encodeSessionStatusRequest({})),
            MessageType::kSessionStatusRequest);
  EXPECT_EQ(service::peekType(service::encodeSessionStatusResponse({})),
            MessageType::kSessionStatusResponse);
}

// --- Backoff ladder and ack modes -----------------------------------------

TEST(ReplBackoff, DeterministicDoublingCappedWithBoundedJitter) {
  // The reconnect schedule of the replicator and SessionStream.
  const auto base = service::kReconnectBackoffBase;
  const auto cap = service::kReconnectBackoffCap;
  const auto delay = [&](int attempt, std::string_view salt) {
    return backoffDelay(attempt, base, cap, saltedJitter(salt, attempt));
  };
  // Same (attempt, salt) always sleeps the same amount.
  for (int attempt = 1; attempt <= 12; ++attempt)
    EXPECT_EQ(delay(attempt, "client-a"), delay(attempt, "client-a"));
  // The ladder doubles from 20ms up to the cap, and the jitter adds less
  // than one base: attempt k sleeps in [min(20 << (k-1), cap), +20ms).
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const auto floor =
        std::min<std::int64_t>(20ll << (attempt - 1), cap.count());
    const auto ms = delay(attempt, "client-a").count();
    EXPECT_GE(ms, floor) << "attempt " << attempt;
    EXPECT_LT(ms, floor + base.count()) << "attempt " << attempt;
    const double jitter = saltedJitter("client-a", attempt);
    EXPECT_GE(jitter, 0.0);
    EXPECT_LT(jitter, 1.0);
  }
  // No overflow far past the cap.
  EXPECT_LT(delay(1000, "client-a"), cap + base);
  // Different salts fan the fleet out: at least one of the first attempts
  // draws a different jitter for a different salt.
  bool spread = false;
  for (int attempt = 1; attempt <= 8 && !spread; ++attempt)
    spread = delay(attempt, "client-a") != delay(attempt, "client-b");
  EXPECT_TRUE(spread);
}

TEST(ReplAckMode, ParsesKnownModesAndRejectsUnknown) {
  EXPECT_EQ(service::replAckFromString("quorum"), ReplAck::kQuorum);
  EXPECT_EQ(service::replAckFromString("async"), ReplAck::kAsync);
  EXPECT_STREQ(service::toString(ReplAck::kQuorum), "quorum");
  EXPECT_STREQ(service::toString(ReplAck::kAsync), "async");
  EXPECT_THROW(service::replAckFromString("eventual"), Error);
}

// --- Chaos profiles for the replication link ------------------------------

TEST(ReplChaos, ProfilesTargetOnlyTheReplLink) {
  const auto light = chaos::profileByName("repl-light");
  ASSERT_TRUE(light.has_value());
  EXPECT_GT(light->replResetProbability, 0.0);
  EXPECT_GT(light->replConnectResetProbability, 0.0);
  // The client-facing wire and the disk stay quiet under repl-*.
  EXPECT_EQ(light->resetProbability, 0.0);
  EXPECT_EQ(light->connectResetProbability, 0.0);
  EXPECT_EQ(light->diskErrorProbability, 0.0);

  const auto storm = chaos::profileByName("repl-storm");
  ASSERT_TRUE(storm.has_value());
  EXPECT_GT(storm->replResetProbability, light->replResetProbability);

  // `full` exercises every plane at light rates, repl link included.
  const auto full = chaos::profileByName("full");
  ASSERT_TRUE(full.has_value());
  EXPECT_GT(full->replResetProbability, 0.0);
  EXPECT_GT(full->resetProbability, 0.0);
  EXPECT_GT(full->diskErrorProbability, 0.0);
}

TEST(ReplChaos, ScopedReplLinkTagsTheCallingThreadOnly) {
  EXPECT_FALSE(chaos::onReplLink());
  {
    chaos::ScopedReplLink outer;
    EXPECT_TRUE(chaos::onReplLink());
    {
      chaos::ScopedReplLink inner;  // nesting is fine
      EXPECT_TRUE(chaos::onReplLink());
    }
    EXPECT_TRUE(chaos::onReplLink());
    // Another thread is untagged even while this one is inside the scope.
    bool other = true;
    std::thread([&other] { other = chaos::onReplLink(); }).join();
    EXPECT_FALSE(other);
  }
  EXPECT_FALSE(chaos::onReplLink());
}

// --- Standby semantics (in-process SessionService) ------------------------

TEST(ReplStandby, WarmReplaysShippedRecordsAndReportsStatus) {
  SessionService standby(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const auto response = standby.replAppend(replRequestFor(config, 1, mut(k)));
    ASSERT_EQ(response.status, SessionStatus::kOk)
        << "seq " << k << ": " << response.error;
    EXPECT_EQ(response.lastAccepted, k);
    EXPECT_EQ(response.epoch, 1u);
  }
  const auto status = awaitCaughtUp(standby, config);
  ASSERT_EQ(status.status, SessionStatus::kOk);
  EXPECT_EQ(status.role, "standby");
  EXPECT_EQ(status.epoch, 1u);
  EXPECT_EQ(status.lastAccepted, 5u);
  EXPECT_EQ(status.applied, 5u);  // warm replay caught up, not just journaled
}

TEST(ReplStandby, PromotionOnClientResumeBumpsEpochAndMatchesReference) {
  SessionService standby(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  for (std::uint64_t k = 1; k <= 5; ++k)
    ASSERT_EQ(standby.replAppend(replRequestFor(config, 1, mut(k))).status,
              SessionStatus::kOk);
  awaitCaughtUp(standby, config);

  // Failover: the first client open(resume) promotes the standby.
  const std::uint64_t failoversBefore =
      metrics::counter(metrics::kServiceFailovers).value();
  const auto resumed = standby.open(openRequestFor(config));
  ASSERT_EQ(resumed.status, SessionStatus::kOk);
  EXPECT_EQ(resumed.lastApplied, 5u);
  EXPECT_EQ(metrics::counter(metrics::kServiceFailovers).value(),
            failoversBefore + 1);
  auto status = standby.status({config.tenant, config.name});
  EXPECT_EQ(status.role, "primary");
  EXPECT_EQ(status.epoch, 2u);

  // The promoted transcript continues exactly where an uninterrupted
  // engine would be.
  SessionEngine reference(config);
  for (std::uint64_t k = 1; k <= 5; ++k) reference.apply(mut(k));
  const PlanOutcome expected = reference.apply(mut(6));
  const auto response = standby.mutate(mutateRequestFor(config, mut(6)));
  ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
  EXPECT_EQ(response.program, expected.program);

  // A deposed primary still shipping epoch 1 is refused and counted.
  const std::uint64_t staleBefore =
      metrics::counter(metrics::kServiceStaleEpochRejected).value();
  const auto stale = standby.replAppend(replRequestFor(config, 1, mut(7)));
  EXPECT_EQ(stale.status, SessionStatus::kStaleEpoch);
  EXPECT_EQ(stale.epoch, 2u);  // tells the deposed primary how far behind
  EXPECT_EQ(metrics::counter(metrics::kServiceStaleEpochRejected).value(),
            staleBefore + 1);
}

TEST(ReplStandby, EqualEpochAgainstAPrimaryIsRefused) {
  // Two daemons both believing they are the epoch-1 primary must not
  // cross-replicate: an append at the receiver's own epoch is only valid
  // when the receiver is a standby.
  SessionService store(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
  ASSERT_EQ(store.mutate(mutateRequestFor(config, mut(1))).status,
            SessionStatus::kOk);
  const auto refused = store.replAppend(replRequestFor(config, 1, mut(2)));
  EXPECT_EQ(refused.status, SessionStatus::kStaleEpoch);
}

TEST(ReplStandby, HigherEpochDemotesAPrimaryAndForcesResync) {
  SessionService store(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
  for (std::uint64_t k = 1; k <= 2; ++k)
    ASSERT_EQ(store.mutate(mutateRequestFor(config, mut(k))).status,
              SessionStatus::kOk);
  // A newer primary (epoch 3) starts shipping: this replica adopts the
  // epoch and demotes itself to standby — and because its own accepted
  // suffix may contain records the new primary never saw (seq equality
  // proves nothing across epochs), it discards its replay state and
  // reports a gap so the new primary resyncs it from scratch.
  const auto shipped = store.replAppend(replRequestFor(config, 3, mut(3)));
  ASSERT_EQ(shipped.status, SessionStatus::kBadSequence) << shipped.error;
  EXPECT_EQ(shipped.epoch, 3u);        // the epoch was adopted...
  EXPECT_EQ(shipped.lastAccepted, 0u); // ...and the suffix discarded
  // The shipper heals the gap the usual way: snapshot (none here — the
  // primary never rotated, its whole history is the tail) + tail replay.
  for (std::uint64_t k = 1; k <= 3; ++k)
    ASSERT_EQ(store.replAppend(replRequestFor(config, 3, mut(k))).status,
              SessionStatus::kOk);
  const auto status = awaitCaughtUp(store, config);
  EXPECT_EQ(status.role, "standby");
  EXPECT_EQ(status.epoch, 3u);
  EXPECT_EQ(status.lastAccepted, 3u);
}

TEST(ReplStandby, EpochAdoptionDiscardsDivergentSuffix) {
  // The async-failover divergence leg: a deposed primary (or a standby it
  // reached that the promotion winner did not) holds records at seqs the
  // new primary assigned to *different* mutations.  Those phantoms must
  // not survive demotion as "duplicates" — after resync the transcript
  // must match the new primary's history, byte for byte.
  SessionService store(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  for (std::uint64_t k = 1; k <= 2; ++k)
    ASSERT_EQ(store.replAppend(replRequestFor(config, 1, mut(k))).status,
              SessionStatus::kOk);
  MutationRecord phantom = mut(3);
  phantom.mutationSeed = 424242;  // the record the new primary never saw
  ASSERT_EQ(store.replAppend(replRequestFor(config, 1, phantom)).status,
            SessionStatus::kOk);
  awaitCaughtUp(store, config);

  // The new primary (epoch 2) ships ITS seq-3 record: same seq, different
  // content.  Before the fix this answered kOk as an idempotent duplicate
  // and the phantom survived; now the standby discards and gap-reports.
  ASSERT_EQ(store.replAppend(replRequestFor(config, 2, mut(3))).status,
            SessionStatus::kBadSequence);
  for (std::uint64_t k = 1; k <= 3; ++k)
    ASSERT_EQ(store.replAppend(replRequestFor(config, 2, mut(k))).status,
              SessionStatus::kOk);
  awaitCaughtUp(store, config);

  // Promote and continue: the transcript must equal a reference that only
  // ever saw the new primary's records.
  ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
  SessionEngine reference(config);
  for (std::uint64_t k = 1; k <= 3; ++k) reference.apply(mut(k));
  const PlanOutcome expected = reference.apply(mut(4));
  const auto response = store.mutate(mutateRequestFor(config, mut(4)));
  ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
  EXPECT_EQ(response.program, expected.program);
}

TEST(ReplStandby, StandbyGraceGatesPromotionWhilePrimaryIsLive) {
  // With --standby-grace set, a standby that heard from its primary inside
  // the window refuses client-triggered promotion: a transport blip
  // between client and primary must not depose a healthy primary.
  SessionServiceOptions gated;
  gated.standbyGrace = std::chrono::milliseconds(60000);
  SessionService standby(gated);
  const SessionConfig config = smallConfig();
  ASSERT_EQ(standby.replAppend(replRequestFor(config, 1, mut(1))).status,
            SessionStatus::kOk);
  awaitCaughtUp(standby, config);
  const auto refusedOpen = standby.open(openRequestFor(config));
  EXPECT_EQ(refusedOpen.status, SessionStatus::kFailed);
  EXPECT_NE(refusedOpen.error.find("standby"), std::string::npos)
      << refusedOpen.error;
  EXPECT_EQ(standby.mutate(mutateRequestFor(config, mut(2))).status,
            SessionStatus::kFailed);
  EXPECT_EQ(standby.status({config.tenant, config.name}).role, "standby");

  // Once the primary has been silent past the grace window, the same
  // client contact IS the failover signal and promotion proceeds.
  SessionServiceOptions brief;
  brief.standbyGrace = std::chrono::milliseconds(50);
  SessionService patient(brief);
  ASSERT_EQ(patient.replAppend(replRequestFor(config, 1, mut(1))).status,
            SessionStatus::kOk);
  awaitCaughtUp(patient, config);
  std::this_thread::sleep_for(150ms);
  ASSERT_EQ(patient.open(openRequestFor(config)).status, SessionStatus::kOk);
  EXPECT_EQ(patient.status({config.tenant, config.name}).role, "primary");
}

TEST(ReplStandby, DuplicatesAreIdempotentAndGapsRejected) {
  SessionService standby(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  ASSERT_EQ(standby.replAppend(replRequestFor(config, 1, mut(1))).status,
            SessionStatus::kOk);
  // A duplicate (retry after a lost reply) is acked without re-journaling.
  const auto duplicate = standby.replAppend(replRequestFor(config, 1, mut(1)));
  EXPECT_EQ(duplicate.status, SessionStatus::kOk);
  EXPECT_EQ(duplicate.lastAccepted, 1u);
  // A gap tells the primary to resync via snapshot install.
  const auto gap = standby.replAppend(replRequestFor(config, 1, mut(5)));
  EXPECT_EQ(gap.status, SessionStatus::kBadSequence);
  EXPECT_NE(gap.error.find("expected seq 2"), std::string::npos) << gap.error;
}

TEST(ReplStandby, SnapshotInstallSeedsAStandbyForTailReplay) {
  // A primary old enough to have rotated its journal resyncs a gapped
  // standby with its on-disk snapshot; the standby then replays only the
  // un-snapshotted tail — promotion cost is O(tail), not O(history).
  const SessionConfig config = smallConfig();
  TempDir primaryDir;
  std::string snapshotBytes;
  std::uint64_t snapshotCovers = 0;
  {
    SessionServiceOptions options;
    options.stateDir = primaryDir.path;
    options.snapshotEvery = 2;
    SessionService primary(options);
    ASSERT_EQ(primary.open(openRequestFor(config)).status, SessionStatus::kOk);
    for (std::uint64_t k = 1; k <= 4; ++k)
      ASSERT_EQ(primary.mutate(mutateRequestFor(config, mut(k))).status,
                SessionStatus::kOk);
    const auto bytes = fsio::readFileIfExists(primaryDir.path + "/" +
                                              config.tenant + "@" +
                                              config.name + ".snap");
    ASSERT_TRUE(bytes.has_value()) << "no snapshot after 4 mutations";
    snapshotBytes = *bytes;
  }

  TempDir standbyDir;
  SessionServiceOptions standbyOptions;
  standbyOptions.stateDir = standbyDir.path;
  SessionService standby(standbyOptions);
  service::SessionReplSnapshotRequest install;
  install.tenant = config.tenant;
  install.name = config.name;
  install.epoch = 2;
  install.snapshot = snapshotBytes;
  const auto installed = standby.replInstall(install);
  ASSERT_EQ(installed.status, SessionStatus::kOk) << installed.error;
  snapshotCovers = installed.lastAccepted;
  ASSERT_GE(snapshotCovers, 2u);
  ASSERT_LE(snapshotCovers, 4u);

  // Tail replay from the install point, then promote and continue; the
  // result must match an engine that lived through all of it.
  for (std::uint64_t k = snapshotCovers + 1; k <= 6; ++k)
    ASSERT_EQ(standby.replAppend(replRequestFor(config, 2, mut(k))).status,
              SessionStatus::kOk);
  awaitCaughtUp(standby, config);
  ASSERT_EQ(standby.open(openRequestFor(config)).status, SessionStatus::kOk);
  EXPECT_EQ(standby.status({config.tenant, config.name}).epoch, 3u);

  SessionEngine reference(config);
  for (std::uint64_t k = 1; k <= 6; ++k) reference.apply(mut(k));
  const PlanOutcome expected = reference.apply(mut(7));
  const auto response = standby.mutate(mutateRequestFor(config, mut(7)));
  ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
  EXPECT_EQ(response.program, expected.program);

  // A corrupted snapshot must never install.
  SessionService fresh(SessionServiceOptions{});
  install.snapshot[install.snapshot.size() / 2] ^= 0x40;
  install.tenant = "poisoned";
  EXPECT_NE(fresh.replInstall(install).status, SessionStatus::kOk);
}

// --- Replicator transport (no standby listening) --------------------------

ReplicatorOptions unreachableOptions(ReplAck ack) {
  ReplicatorOptions options;
  options.replicas.push_back(
      ipc::parseEndpoint("/tmp/rfsm-repl-nobody-home.sock"));
  options.ack = ack;
  options.retryFor = 200ms;
  options.readTimeout = 500ms;
  options.maxQueue = 2;
  return options;
}

TEST(ReplicatorTransport, SyncShipSurfacesAnUnreachableStandby) {
  Replicator replicator(
      unreachableOptions(ReplAck::kQuorum),
      [](const std::string&, const std::string&) {
        return std::optional<Replicator::ResyncBundle>{};
      },
      [](const std::string&, const std::string&, std::uint64_t) {});
  const auto result =
      replicator.shipSync(replRequestFor(smallConfig(), 1, mut(1)));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.staleEpoch);
  EXPECT_NE(result.error.find("unreachable"), std::string::npos)
      << result.error;
}

TEST(ReplicatorTransport, AsyncLagIsVisibleAndQueuesAreBounded) {
  Replicator replicator(
      unreachableOptions(ReplAck::kAsync),
      [](const std::string&, const std::string&) {
        return std::optional<Replicator::ResyncBundle>{};
      },
      [](const std::string&, const std::string&, std::uint64_t) {});
  const SessionConfig config = smallConfig();
  int accepted = 0;
  int refused = 0;
  for (std::uint64_t k = 1; k <= 6; ++k) {
    if (replicator.shipAsync(replRequestFor(config, 1, mut(k))))
      ++accepted;
    else
      ++refused;
  }
  // maxQueue = 2 bounds the loss window: most of the burst is refused.
  EXPECT_GE(accepted, 1);
  EXPECT_GE(refused, 1);
  // The un-shipped backlog is visible as lag, and ages.
  EXPECT_GE(replicator.lagRecords(), 1u);
  std::this_thread::sleep_for(60ms);
  EXPECT_GT(replicator.lagMs(), 0);
  replicator.refreshGauges();
  EXPECT_GE(metrics::gauge(metrics::kServiceReplLagRecords).value(), 1);
}

TEST(ReplicatorTransport, ShutdownInterruptsTheRetryLadder) {
  // An async worker stuck in the retry ladder against a dead standby must
  // not hold ~Replicator for the whole retryFor budget: the stop flag
  // interrupts both the backoff sleep and the next loop iteration.
  ReplicatorOptions options = unreachableOptions(ReplAck::kAsync);
  options.retryFor = 5000ms;
  const auto started = std::chrono::steady_clock::now();
  {
    Replicator replicator(
        options,
        [](const std::string&, const std::string&) {
          return std::optional<Replicator::ResyncBundle>{};
        },
        [](const std::string&, const std::string&, std::uint64_t) {});
    ASSERT_TRUE(replicator.shipAsync(replRequestFor(smallConfig(), 1, mut(1))));
    std::this_thread::sleep_for(50ms);  // let the worker enter the ladder
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(elapsed, 2000ms)
      << "destructor stalled "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << "ms against a 5000ms retry budget";
}

// --- Failover against a real standby daemon -------------------------------

TEST(ReplFailover, QuorumShipsToADaemonStandbyWhichPromotesByteIdentical) {
  const SessionConfig config = smallConfig("ha", "stream");
  const std::string socketPath = freshSocketPath("standby");
  TempDir standbyDir;
  Daemon standby;
  ASSERT_TRUE(standby.start(socketPath, standbyDir.path))
      << "rfsmd did not come up on " << socketPath;

  // An in-process primary quorum-replicating to the daemon.
  TempDir primaryDir;
  SessionServiceOptions primaryOptions;
  primaryOptions.stateDir = primaryDir.path;
  primaryOptions.replicas.push_back(ipc::parseEndpoint(socketPath));
  primaryOptions.replAck = ReplAck::kQuorum;
  SessionService primary(primaryOptions);
  ASSERT_EQ(primary.open(openRequestFor(config)).status, SessionStatus::kOk);

  SessionEngine reference(config);
  std::vector<std::pair<std::uint64_t, std::string>> expected, transcript;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const auto response = primary.mutate(mutateRequestFor(config, mut(k)));
    ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
    transcript.emplace_back(k, response.program);
  }

  // Quorum means the standby journaled every acked record *before* the
  // ack — its high-water mark cannot trail the primary's.
  service::SessionStream::Options streamOptions;
  streamOptions.endpoint = ipc::parseEndpoint(socketPath);
  streamOptions.retryFor = 10s;
  service::SessionStream stream(streamOptions);
  service::SessionStatusResponse status;
  for (int spin = 0; spin < 400; ++spin) {
    status = stream.status({config.tenant, config.name});
    if (status.status == SessionStatus::kOk && status.applied == 4u) break;
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(status.status, SessionStatus::kOk) << status.error;
  EXPECT_EQ(status.role, "standby");
  EXPECT_EQ(status.lastAccepted, 4u);
  EXPECT_EQ(status.applied, 4u);

  // Failover: the client re-opens against the standby, which promotes and
  // serves the rest of the stream.
  const auto resumed = stream.open(openRequestFor(config));
  ASSERT_EQ(resumed.status, SessionStatus::kOk);
  ASSERT_EQ(resumed.lastApplied, 4u);
  for (std::uint64_t k = 5; k <= 6; ++k) {
    const auto response = stream.mutate(mutateRequestFor(config, mut(k)));
    ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
    transcript.emplace_back(k, response.program);
  }
  const auto promoted = stream.status({config.tenant, config.name});
  EXPECT_EQ(promoted.role, "primary");
  EXPECT_EQ(promoted.epoch, 2u);

  // The failed-over transcript equals the uninterrupted reference.
  for (std::uint64_t k = 1; k <= 6; ++k) {
    const PlanOutcome outcome = reference.apply(mut(k));
    ASSERT_TRUE(outcome.planned);
    expected.emplace_back(k, outcome.program);
  }
  ASSERT_EQ(transcript.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k)
    EXPECT_EQ(transcript[k].second, expected[k].second)
        << "plan at seq " << expected[k].first << " diverged after failover";

  // The deposed primary's next quorum ship hits the promoted standby's
  // higher epoch: the client is refused (kStaleEpoch), nothing is acked,
  // and the session stays fenced.
  const auto fencedResponse = primary.mutate(mutateRequestFor(config, mut(5)));
  EXPECT_EQ(fencedResponse.status, SessionStatus::kStaleEpoch)
      << fencedResponse.error;
  EXPECT_EQ(primary.mutate(mutateRequestFor(config, mut(5))).status,
            SessionStatus::kStaleEpoch);  // fence is sticky
  ::unlink(socketPath.c_str());
}

}  // namespace
}  // namespace rfsm
