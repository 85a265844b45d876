// Transport-layer tests: cancellation tokens, backoff schedule, message
// encoding, frame I/O over real socketpairs, and the named fault scenarios.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "service/protocol.hpp"
#include "util/backoff.hpp"
#include "util/deadline.hpp"
#include "util/fault.hpp"
#include "util/ipc.hpp"
#include "util/supervisor.hpp"

namespace rfsm {
namespace {

using namespace std::chrono_literals;

// --- CancelToken ---------------------------------------------------------

TEST(CancelToken, FreshTokenIsNotExpired) {
  CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.deadline().has_value());
  EXPECT_FALSE(token.remaining().has_value());
  EXPECT_NO_THROW(token.throwIfExpired("test"));
}

TEST(CancelToken, CancelIsSticky) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.expired());
  EXPECT_THROW(token.throwIfExpired("here"), CancelledError);
}

TEST(CancelToken, PastDeadlineExpires) {
  CancelToken token;
  token.setDeadline(CancelToken::Clock::now() - 1ms);
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.remaining()->count(), 0);
}

TEST(CancelToken, FutureDeadlineDoesNotExpireYet) {
  CancelToken token(std::chrono::milliseconds(60000));
  EXPECT_FALSE(token.expired());
  EXPECT_GT(token.remaining()->count(), 0);
}

TEST(CancelToken, ThrowNamesThePollSite) {
  CancelToken token;
  token.cancel();
  try {
    pollCancel(&token, "planner.bfs");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& error) {
    EXPECT_NE(std::string(error.what()).find("planner.bfs"),
              std::string::npos);
  }
}

TEST(CancelToken, PollCancelIgnoresNull) {
  EXPECT_NO_THROW(pollCancel(nullptr, "anywhere"));
}

// --- Backoff schedule ----------------------------------------------------

TEST(Backoff, GrowsExponentiallyAndCaps) {
  const auto base = 25ms, cap = 1000ms;
  EXPECT_EQ(backoffDelay(1, base, cap, 0.0), 25ms);
  EXPECT_EQ(backoffDelay(2, base, cap, 0.0), 50ms);
  EXPECT_EQ(backoffDelay(3, base, cap, 0.0), 100ms);
  EXPECT_EQ(backoffDelay(10, base, cap, 0.0), 1000ms);  // capped
  EXPECT_EQ(backoffDelay(1000, base, cap, 0.0), 1000ms);  // no overflow
}

TEST(Backoff, JitterAddsAtMostOneBase) {
  const auto base = 25ms, cap = 1000ms;
  EXPECT_EQ(backoffDelay(1, base, cap, 1.0), 50ms);
  EXPECT_LE(backoffDelay(30, base, cap, 1.0), cap + base);
}

// --- Message encoding ----------------------------------------------------

TEST(Message, RoundTripsAllFieldTypes) {
  ipc::MessageWriter writer;
  writer.u32(0xdeadbeefu);
  writer.u64(0x0123456789abcdefull);
  writer.i64(-42);
  writer.str("hello \0 world");  // string_view stops at the literal's \0
  writer.str("");
  ipc::MessageReader reader(writer.data());
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.str(), "hello ");
  EXPECT_EQ(reader.str(), "");
  EXPECT_TRUE(reader.atEnd());
  EXPECT_NO_THROW(reader.expectEnd());
}

TEST(Message, EmbeddedNulAndBinaryBytesSurvive) {
  std::string binary("\x00\x01\xff\x7f", 4);
  ipc::MessageWriter writer;
  writer.str(binary);
  ipc::MessageReader reader(writer.data());
  EXPECT_EQ(reader.str(), binary);
}

TEST(Message, TruncationThrowsNotMisparses) {
  ipc::MessageWriter writer;
  writer.u64(7);
  writer.str("payload");
  const std::string full = writer.data();
  // Every proper prefix must fail loudly on some read.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    ipc::MessageReader reader(prefix);
    EXPECT_THROW(
        {
          reader.u64();
          reader.str();
          reader.expectEnd();
        },
        ipc::IpcError)
        << "prefix of " << cut << " bytes parsed silently";
  }
}

TEST(Message, LeftoverBytesAreAnError) {
  ipc::MessageWriter writer;
  writer.u32(1);
  writer.u32(2);
  ipc::MessageReader reader(writer.data());
  reader.u32();
  EXPECT_THROW(reader.expectEnd(), ipc::IpcError);
}

// --- Frames over a socketpair -------------------------------------------

struct SocketPair {
  ipc::Fd a, b;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = ipc::Fd(fds[0]);
    b = ipc::Fd(fds[1]);
  }
};

TEST(Frames, RoundTrip) {
  SocketPair pair;
  ipc::writeFrame(pair.a.get(), "the payload");
  std::string payload;
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kOk);
  EXPECT_EQ(payload, "the payload");
}

TEST(Frames, EmptyPayloadIsAValidFrame) {
  SocketPair pair;
  ipc::writeFrame(pair.a.get(), "");
  std::string payload = "stale";
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kOk);
  EXPECT_EQ(payload, "");
}

TEST(Frames, PeerCloseReadsAsEof) {
  SocketPair pair;
  pair.a.reset();
  std::string payload;
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kEof);
}

TEST(Frames, TornFrameReadsAsEof) {
  SocketPair pair;
  // Length prefix promising 100 bytes, then death after 3.
  const std::uint32_t length = 100;
  ASSERT_EQ(write(pair.a.get(), &length, 4), 4);
  ASSERT_EQ(write(pair.a.get(), "abc", 3), 3);
  pair.a.reset();
  std::string payload;
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kEof);
}

TEST(Frames, DeadlineTurnsSilenceIntoTimeout) {
  SocketPair pair;
  CancelToken cancel(std::chrono::milliseconds(50));
  std::string payload;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload, &cancel),
            ipc::ReadStatus::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(Frames, OversizedLengthPrefixIsRejected) {
  SocketPair pair;
  const std::uint32_t huge = ipc::kMaxFrameBytes + 1;
  ASSERT_EQ(write(pair.a.get(), &huge, 4), 4);
  std::string payload;
  EXPECT_THROW(ipc::readFrame(pair.b.get(), payload), ipc::IpcError);
}

TEST(Frames, OversizedLengthPrefixIsATypedFrameError) {
  // The malformed-frame error is its own type so callers can report
  // "malformed response" instead of "unreachable".
  SocketPair pair;
  const std::uint32_t huge = 0xffffffffu;  // also: "negative" as a signed read
  ASSERT_EQ(write(pair.a.get(), &huge, 4), 4);
  std::string payload;
  EXPECT_THROW(ipc::readFrame(pair.b.get(), payload), ipc::FrameError);
}

TEST(Frames, Crc32cMatchesTheKnownCheckValue) {
  // The canonical CRC-32C check vector (RFC 3720 appendix B / Castagnoli).
  EXPECT_EQ(ipc::crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(ipc::crc32c(""), 0u);
}

/// A wire-correct frame for `payload`: length | payload | crc32c(payload).
std::string rawFrame(const std::string& payload) {
  std::string frame;
  const auto le32 = [&frame](std::uint32_t value) {
    for (int k = 0; k < 4; ++k)
      frame.push_back(static_cast<char>(value >> (8 * k)));
  };
  le32(static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  le32(ipc::crc32c(payload));
  return frame;
}

TEST(Frames, SingleBitPayloadCorruptionIsRejectedByTheCrcTrailer) {
  for (std::size_t bit = 0; bit < 8; ++bit) {
    SocketPair pair;
    std::string frame = rawFrame("corrupt-me");
    frame[6] ^= static_cast<char>(1u << bit);  // a payload byte
    ASSERT_EQ(write(pair.a.get(), frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    std::string payload;
    EXPECT_THROW(ipc::readFrame(pair.b.get(), payload), ipc::FrameError);
  }
}

TEST(Frames, CorruptedTrailerItselfIsRejected) {
  SocketPair pair;
  std::string frame = rawFrame("payload");
  frame[frame.size() - 1] ^= 0x40;  // flip a CRC bit
  ASSERT_EQ(write(pair.a.get(), frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  std::string payload;
  EXPECT_THROW(ipc::readFrame(pair.b.get(), payload), ipc::FrameError);
}

TEST(Frames, EofMidTrailerReadsAsEofNotError) {
  SocketPair pair;
  std::string frame = rawFrame("torn");
  frame.resize(frame.size() - 2);  // payload complete, trailer torn
  ASSERT_EQ(write(pair.a.get(), frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  pair.a.reset();
  std::string payload;
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kEof);
}

TEST(Frames, PendingInputSeesQueuedFramesAndEof) {
  SocketPair pair;
  EXPECT_FALSE(ipc::pendingInput(pair.b.get()));
  ipc::writeFrame(pair.a.get(), "queued");
  EXPECT_TRUE(ipc::pendingInput(pair.b.get()));
  std::string payload;
  ASSERT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kOk);
  EXPECT_FALSE(ipc::pendingInput(pair.b.get()));
  pair.a.reset();  // an EOF is also "pending": the stream is unusable
  EXPECT_TRUE(ipc::pendingInput(pair.b.get()));
}

TEST(Frames, WriteToClosedPeerThrowsInsteadOfSigpipe) {
  ipc::ignoreSigpipe();
  SocketPair pair;
  pair.b.reset();
  // The first write may land in the kernel buffer; keep writing until the
  // EPIPE surfaces.
  EXPECT_THROW(
      {
        for (int k = 0; k < 64; ++k)
          ipc::writeFrame(pair.a.get(), std::string(4096, 'x'));
      },
      ipc::IpcError);
}

TEST(Frames, ManyFramesKeepOrder) {
  SocketPair pair;
  std::thread writer([fd = pair.a.get()] {
    for (int k = 0; k < 100; ++k)
      ipc::writeFrame(fd, "frame-" + std::to_string(k));
  });
  std::string payload;
  for (int k = 0; k < 100; ++k) {
    ASSERT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kOk);
    EXPECT_EQ(payload, "frame-" + std::to_string(k));
  }
  writer.join();
}

// --- Named fault scenarios ----------------------------------------------

// --- Endpoint addressing -------------------------------------------------

TEST(Endpoint, UnixFormsParse) {
  const auto explicitForm = ipc::parseEndpoint("unix:/tmp/a.sock");
  EXPECT_EQ(explicitForm.kind, ipc::Endpoint::Kind::kUnix);
  EXPECT_EQ(explicitForm.path, "/tmp/a.sock");
  EXPECT_EQ(explicitForm.describe(), "unix:/tmp/a.sock");

  const auto bare = ipc::parseEndpoint("/tmp/b.sock");
  EXPECT_EQ(bare.kind, ipc::Endpoint::Kind::kUnix);
  EXPECT_EQ(bare.path, "/tmp/b.sock");

  // No ':' and no '/' still reads as a (relative) unix path.
  const auto relative = ipc::parseEndpoint("planner.sock");
  EXPECT_EQ(relative.kind, ipc::Endpoint::Kind::kUnix);
  EXPECT_EQ(relative.path, "planner.sock");
}

TEST(Endpoint, TcpFormsParse) {
  const auto explicitForm = ipc::parseEndpoint("tcp:localhost:4777");
  EXPECT_EQ(explicitForm.kind, ipc::Endpoint::Kind::kTcp);
  EXPECT_EQ(explicitForm.host, "localhost");
  EXPECT_EQ(explicitForm.port, 4777);
  EXPECT_EQ(explicitForm.describe(), "tcp:localhost:4777");

  const auto shorthand = ipc::parseEndpoint("127.0.0.1:9");
  EXPECT_EQ(shorthand.kind, ipc::Endpoint::Kind::kTcp);
  EXPECT_EQ(shorthand.host, "127.0.0.1");
  EXPECT_EQ(shorthand.port, 9);

  // The *last* colon splits host from port, so IPv6 literals work.
  const auto v6 = ipc::parseEndpoint("tcp:::1:80");
  EXPECT_EQ(v6.kind, ipc::Endpoint::Kind::kTcp);
  EXPECT_EQ(v6.host, "::1");
  EXPECT_EQ(v6.port, 80);
}

TEST(Endpoint, MalformedInputsThrow) {
  EXPECT_THROW(ipc::parseEndpoint(""), ipc::IpcError);
  EXPECT_THROW(ipc::parseEndpoint("tcp:host:notaport"), ipc::IpcError);
  EXPECT_THROW(ipc::parseEndpoint("tcp:host:70000"), ipc::IpcError);
  EXPECT_THROW(ipc::parseEndpoint("tcp:host:"), ipc::IpcError);
  EXPECT_THROW(ipc::parseEndpoint("unix:"), ipc::IpcError);
}

TEST(Endpoint, ListSplitsOnCommasAndWhitespace) {
  const auto list = ipc::parseEndpointList(
      "unix:/tmp/a.sock, tcp:localhost:4777\n/tmp/b.sock ,,");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].describe(), "unix:/tmp/a.sock");
  EXPECT_EQ(list[1].describe(), "tcp:localhost:4777");
  EXPECT_EQ(list[2].describe(), "unix:/tmp/b.sock");
  EXPECT_TRUE(ipc::parseEndpointList("").empty());
}

TEST(Endpoint, TcpLoopbackConnectAndFrame) {
  ipc::Fd listener = ipc::listenTcp("127.0.0.1", 0);
  const std::uint16_t port = ipc::localTcpPort(listener.get());
  ASSERT_GT(port, 0);

  ipc::Endpoint ep;
  ep.kind = ipc::Endpoint::Kind::kTcp;
  ep.host = "127.0.0.1";
  ep.port = port;
  ipc::Fd client = ipc::connectEndpoint(ep, 2000);

  CancelToken acceptDeadline(std::chrono::milliseconds(2000));
  auto server = ipc::acceptUnix(listener.get(), &acceptDeadline);
  ASSERT_TRUE(server.has_value());

  ipc::writeFrame(client.get(), "over tcp");
  std::string payload;
  ASSERT_EQ(ipc::readFrame(server->get(), payload), ipc::ReadStatus::kOk);
  EXPECT_EQ(payload, "over tcp");
}

TEST(Endpoint, TcpConnectToDeadPortThrows) {
  // Bind-then-close to find a port with (almost certainly) no listener.
  std::uint16_t port = 0;
  {
    ipc::Fd listener = ipc::listenTcp("127.0.0.1", 0);
    port = ipc::localTcpPort(listener.get());
  }
  EXPECT_THROW(ipc::connectTcp("127.0.0.1", port, 500), ipc::IpcError);
}

TEST(FaultScenarios, AllNamesResolve) {
  for (const auto& name : fault::serviceScenarioNames()) {
    const auto scenario = fault::serviceScenarioByName(name);
    ASSERT_TRUE(scenario.has_value()) << name;
    EXPECT_EQ(scenario->name, name);
  }
  EXPECT_FALSE(fault::serviceScenarioByName("quantum-flip").has_value());
}

TEST(FaultScenarios, KillFirstShardTargetsDispatchZero) {
  const auto scenario = fault::serviceScenarioByName("kill-first-shard");
  ASSERT_TRUE(scenario.has_value());
  EXPECT_EQ(scenario->kind, fault::ServiceScenario::Kind::kKillWorker);
}

// --- Service protocol round-trips ---------------------------------------

TEST(Protocol, PlanRequestRoundTrip) {
  service::PlanRequest request;
  request.spec.stateCount = 12;
  request.spec.inputCount = 3;
  request.spec.outputCount = 2;
  request.spec.deltaCount = 9;
  request.spec.newStateCount = 1;
  request.spec.instanceCount = 33;
  request.spec.seed = 99;
  request.spec.planner = "ea";
  request.deadlineMs = 1500;
  request.requestId = 7;
  request.lo = 11;
  request.hi = 22;
  const auto decoded =
      service::decodePlanRequest(service::encodePlanRequest(request));
  EXPECT_EQ(decoded.spec, request.spec);
  EXPECT_EQ(decoded.deadlineMs, 1500);
  EXPECT_EQ(decoded.requestId, 7u);
  EXPECT_EQ(decoded.rangeLo(), 11u);
  EXPECT_EQ(decoded.rangeHi(), 22u);
}

TEST(Protocol, WholeBatchShorthandResolvesToInstanceCount) {
  service::PlanRequest request;
  request.spec.instanceCount = 33;
  const auto decoded =
      service::decodePlanRequest(service::encodePlanRequest(request));
  EXPECT_EQ(decoded.rangeLo(), 0u);
  EXPECT_EQ(decoded.rangeHi(), 33u);
}

TEST(Protocol, WarmupRoundTrip) {
  const std::string request = service::encodeWarmupRequest();
  EXPECT_EQ(service::peekType(request), service::MessageType::kWarmupRequest);
  const std::string response = service::encodeWarmupResponse();
  EXPECT_EQ(service::peekType(response),
            service::MessageType::kWarmupResponse);
  EXPECT_NO_THROW(service::decodeWarmupResponse(response));
  EXPECT_THROW(service::decodeWarmupResponse(request), ipc::IpcError);
}

TEST(Protocol, PlanResponseRoundTrip) {
  service::PlanResponse response;
  response.status = WorkResult::Status::kOk;
  response.programs = {"prog-a\n", "prog-b\n"};
  response.retries = 3;
  response.crashes = 1;
  const auto decoded =
      service::decodePlanResponse(service::encodePlanResponse(response));
  EXPECT_EQ(decoded.status, WorkResult::Status::kOk);
  EXPECT_EQ(decoded.programs, response.programs);
  EXPECT_EQ(decoded.retries, 3u);
  EXPECT_EQ(decoded.crashes, 1u);
}

TEST(Protocol, ShardRequestRoundTrip) {
  service::ShardRequest request;
  request.spec.planner = "greedy";
  request.lo = 8;
  request.hi = 12;
  request.deadlineNs = 123456789;
  const auto decoded =
      service::decodeShardRequest(service::encodeShardRequest(request));
  EXPECT_EQ(decoded.spec, request.spec);
  EXPECT_EQ(decoded.lo, 8u);
  EXPECT_EQ(decoded.hi, 12u);
  EXPECT_EQ(decoded.deadlineNs, 123456789);
}

TEST(Protocol, HealthRoundTrip) {
  service::HealthResponse health;
  health.healthy = true;
  health.workersAlive = 3;
  health.workersConfigured = 4;
  health.queueDepth = 5;
  health.crashes = 6;
  health.retries = 7;
  health.shed = 8;
  const auto decoded =
      service::decodeHealthResponse(service::encodeHealthResponse(health));
  EXPECT_TRUE(decoded.healthy);
  EXPECT_EQ(decoded.workersAlive, 3);
  EXPECT_EQ(decoded.workersConfigured, 4);
  EXPECT_EQ(decoded.queueDepth, 5u);
  EXPECT_EQ(decoded.shed, 8u);
}

TEST(Protocol, WrongMessageTypeIsRejected) {
  const std::string health = service::encodeHealthRequest();
  EXPECT_THROW(service::decodePlanRequest(health), ipc::IpcError);
  EXPECT_EQ(service::peekType(health),
            service::MessageType::kHealthRequest);
  EXPECT_THROW(service::peekType(""), ipc::IpcError);
}

/// One payload per frame type, in tag order, with a non-default value in
/// every field (nested stats rows and all five metrics sample kinds too).
std::vector<std::string> goldenPayloads() {
  namespace svc = service;
  const auto context = [] {
    trace::TraceContext c;
    c.traceIdHi = 0x0102030405060708u;
    c.traceIdLo = 0x1112131415161718u;
    c.spanId = 0x2122232425262728u;
    c.sampled = true;
    return c;
  };
  const auto spec = [] {
    svc::BatchSpec s;
    s.stateCount = 12;
    s.inputCount = 3;
    s.outputCount = 5;
    s.deltaCount = 9;
    s.newStateCount = 2;
    s.instanceCount = 33;
    s.seed = 0x1234567890abcdefu;
    s.planner = "ea";
    s.eaPopulation = 48;
    s.eaGenerations = 96;
    return s;
  };
  std::vector<std::string> payloads;

  svc::PlanRequest plan;
  plan.spec = spec();
  plan.deadlineMs = 1500;
  plan.requestId = 0xfeed;
  plan.lo = 11;
  plan.hi = 22;
  plan.context = context();
  payloads.push_back(svc::encodePlanRequest(plan));

  svc::PlanResponse planReply;
  planReply.status = WorkResult::Status::kDeadlineExceeded;
  planReply.error = "late";
  planReply.programs = {"p1", "p22"};
  planReply.retries = 3;
  planReply.crashes = 1;
  planReply.cacheHits = 4;
  payloads.push_back(svc::encodePlanResponse(planReply));

  payloads.push_back(svc::encodeHealthRequest());

  svc::HealthResponse health;
  health.healthy = true;
  health.workersAlive = 3;
  health.workersConfigured = 4;
  health.queueDepth = 5;
  health.crashes = 6;
  health.retries = 7;
  health.shed = 8;
  payloads.push_back(svc::encodeHealthResponse(health));

  svc::ShardRequest shard;
  shard.spec = spec();
  shard.spec.planner = "greedy";
  shard.lo = 8;
  shard.hi = 12;
  shard.deadlineNs = -123456789;
  shard.context = context();
  payloads.push_back(svc::encodeShardRequest(shard));

  svc::ShardResponse shardReply;
  shardReply.status = WorkResult::Status::kUnavailable;
  shardReply.error = "gone";
  shardReply.programs = {"a", "bc"};
  payloads.push_back(svc::encodeShardResponse(shardReply));

  payloads.push_back(svc::encodeWarmupRequest());
  payloads.push_back(svc::encodeWarmupResponse());

  svc::SessionOpenRequest open;
  open.tenant = "acme";
  open.name = "l7";
  open.priority = 2;
  open.weight = 3;
  open.planner = "greedy";
  open.stateCount = 10;
  open.inputCount = 4;
  open.outputCount = 3;
  open.seed = 77;
  open.resume = false;
  payloads.push_back(svc::encodeSessionOpenRequest(open));

  svc::SessionOpenResponse openReply;
  openReply.status = svc::SessionStatus::kResourceExhausted;
  openReply.error = "busy";
  openReply.lastApplied = 9;
  openReply.retryAfterMs = 125;
  payloads.push_back(svc::encodeSessionOpenResponse(openReply));

  svc::SessionMutateRequest mutate;
  mutate.tenant = "acme";
  mutate.name = "l7";
  mutate.seq = 10;
  mutate.deltaCount = 6;
  mutate.newStateCount = 1;
  mutate.mutationSeed = 0xabcd;
  mutate.defer = true;
  mutate.ackSeq = 7;
  mutate.context = context();
  payloads.push_back(svc::encodeSessionMutateRequest(mutate));

  svc::SessionMutateResponse mutateReply;
  mutateReply.status = svc::SessionStatus::kAccepted;
  mutateReply.error = "e";
  mutateReply.seq = 10;
  mutateReply.program = "prog";
  mutateReply.compactedFrom = 3;
  mutateReply.deltasPlanned = 5;
  mutateReply.deltasRaw = 8;
  mutateReply.retryAfterMs = 40;
  payloads.push_back(svc::encodeSessionMutateResponse(mutateReply));

  svc::SessionReplayRequest replay;
  replay.tenant = "acme";
  replay.name = "l7";
  replay.fromSeq = 3;
  replay.toSeq = 10;
  payloads.push_back(svc::encodeSessionReplayRequest(replay));

  svc::SessionReplayResponse replayReply;
  replayReply.status = svc::SessionStatus::kBadSequence;
  replayReply.error = "gap";
  replayReply.entries.push_back({3, "p3"});
  replayReply.entries.push_back({4, "p4"});
  payloads.push_back(svc::encodeSessionReplayResponse(replayReply));

  svc::SessionCloseRequest close;
  close.tenant = "acme";
  close.name = "l7";
  payloads.push_back(svc::encodeSessionCloseRequest(close));

  svc::SessionCloseResponse closeReply;
  closeReply.status = svc::SessionStatus::kDraining;
  closeReply.error = "bye";
  closeReply.mutationsApplied = 11;
  closeReply.plans = 6;
  payloads.push_back(svc::encodeSessionCloseResponse(closeReply));

  payloads.push_back(svc::encodeStatsRequest());

  svc::StatsResponse stats;
  stats.pid = 4242;
  stats.uptimeMs = 9000;
  stats.draining = true;
  stats.workers = health;
  stats.planCache.enabled = true;
  stats.planCache.size = 12;
  stats.planCache.capacity = 256;
  stats.breakers.push_back({"planner", "OPEN", 3});
  svc::StatsResponse::SessionStats row;
  row.tenant = "acme";
  row.name = "l7";
  row.priority = 0;
  row.weight = 2.5;
  row.vtime = 1.25;
  row.tokensRemaining = 7.5;
  row.queued = 2;
  row.applied = 9;
  row.walAgeMs = 15;
  row.snapshotAgeMs = 300;
  row.role = "standby";
  row.epoch = 4;
  stats.sessions.push_back(row);
  stats.openSessions = 1;
  stats.schedulerDepth = 2;
  stats.schedulerVirtualNow = 3.75;
  stats.metrics.counters.push_back({"c", 5});
  stats.metrics.gauges.push_back({"g", -42});
  stats.metrics.timers.push_back({"t", 3, 1.5});
  stats.metrics.histograms.push_back({"h", 4, 0.5, 0.9, 0.99, 2.0});
  stats.metrics.rolling.push_back({"r", 6, 0.25, 0.75, 1.0, 4.0, 60000});
  payloads.push_back(svc::encodeStatsResponse(stats));

  svc::TraceDumpRequest traceDump;
  traceDump.clientSteadyNs = 777;
  payloads.push_back(svc::encodeTraceDumpRequest(traceDump));

  svc::TraceDumpResponse traceReply;
  traceReply.serverSteadyNs = 888;
  traceReply.clientSteadyNs = 777;
  traceReply.traceJson = "{}";
  payloads.push_back(svc::encodeTraceDumpResponse(traceReply));

  svc::HandshakeRequest handshake;
  handshake.version = 7;
  handshake.features = 5;
  payloads.push_back(svc::encodeHandshakeRequest(handshake));

  svc::HandshakeResponse handshakeReply;
  handshakeReply.accepted = true;
  handshakeReply.version = 3;
  handshakeReply.features = 1;
  handshakeReply.error = "no";
  payloads.push_back(svc::encodeHandshakeResponse(handshakeReply));

  svc::SessionReplAppendRequest append;
  append.tenant = "acme";
  append.name = "l7";
  append.priority = 2;
  append.weight = 3;
  append.planner = "ea";
  append.stateCount = 10;
  append.inputCount = 4;
  append.outputCount = 3;
  append.seed = 77;
  append.epoch = 4;
  append.seq = 11;
  append.deltaCount = 6;
  append.newStateCount = 1;
  append.mutationSeed = 0xabcd;
  append.defer = true;
  payloads.push_back(svc::encodeSessionReplAppendRequest(append));

  svc::SessionReplAppendResponse appendReply;
  appendReply.status = svc::SessionStatus::kStaleEpoch;
  appendReply.error = "stale";
  appendReply.epoch = 5;
  appendReply.lastAccepted = 10;
  payloads.push_back(svc::encodeSessionReplAppendResponse(appendReply));

  svc::SessionReplSnapshotRequest snapshot;
  snapshot.tenant = "acme";
  snapshot.name = "l7";
  snapshot.epoch = 4;
  snapshot.snapshot = std::string("snap\x00\x7f", 6);
  payloads.push_back(svc::encodeSessionReplSnapshotRequest(snapshot));

  svc::SessionReplSnapshotResponse snapshotReply;
  snapshotReply.status = svc::SessionStatus::kOk;
  snapshotReply.error = "x";
  snapshotReply.epoch = 4;
  snapshotReply.lastAccepted = 8;
  payloads.push_back(svc::encodeSessionReplSnapshotResponse(snapshotReply));

  svc::SessionStatusRequest status;
  status.tenant = "acme";
  status.name = "l7";
  payloads.push_back(svc::encodeSessionStatusRequest(status));

  svc::SessionStatusResponse statusReply;
  statusReply.status = svc::SessionStatus::kOk;
  statusReply.error = "e2";
  statusReply.role = "standby";
  statusReply.epoch = 4;
  statusReply.lastAccepted = 11;
  statusReply.applied = 10;
  payloads.push_back(svc::encodeSessionStatusResponse(statusReply));
  return payloads;
}

std::string toHex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  for (const unsigned char byte : bytes) {
    hex += digits[byte >> 4];
    hex += digits[byte & 0xf];
  }
  return hex;
}

TEST(Protocol, GoldenBytesPinTheWireLayout) {
  // Captured from the hand-written codec of protocol generation 2.  Any
  // difference is a wire-layout change: it needs a kProtocolVersion bump
  // and a regenerated table, never a quiet edit of one side.
  const std::vector<std::string> golden = {
      // 1: PlanRequest
      "010000000c000000030000000500000009000000020000002100000000000000"
      "efcdab90785634120200000065613000000060000000dc05000000000000edfe"
      "0000000000000b00000000000000160000000000000008070605040302011817"
      "161514131211282726252423222101000000",
      // 2: PlanResponse
      "0200000002000000040000006c61746503000000000000000100000000000000"
      "04000000000000000200000002000000703103000000703232",
      // 3: HealthRequest
      "03000000",
      // 4: HealthResponse
      "0400000001000000030000000400000005000000000000000600000000000000"
      "07000000000000000800000000000000",
      // 5: ShardRequest
      "050000000c000000030000000500000009000000020000002100000000000000"
      "efcdab9078563412060000006772656564793000000060000000080000000000"
      "00000c00000000000000eb32a4f8ffffffff0807060504030201181716151413"
      "1211282726252423222101000000",
      // 6: ShardResponse
      "060000000400000004000000676f6e65020000000100000061020000006263",
      // 7: WarmupRequest
      "07000000",
      // 8: WarmupResponse
      "08000000",
      // 9: SessionOpenRequest
      "090000000400000061636d65020000006c370200000003000000060000006772"
      "656564790a00000004000000030000004d0000000000000000000000",
      // 10: SessionOpenResponse
      "0a00000002000000040000006275737909000000000000007d00000000000000",
      // 11: SessionMutateRequest
      "0b0000000400000061636d65020000006c370a00000000000000060000000100"
      "0000cdab00000000000001000000070000000000000008070605040302011817"
      "161514131211282726252423222101000000",
      // 12: SessionMutateResponse
      "0c0000000100000001000000650a000000000000000400000070726f67030000"
      "000000000005000000080000002800000000000000",
      // 13: SessionReplayRequest
      "0d0000000400000061636d65020000006c3703000000000000000a0000000000"
      "0000",
      // 14: SessionReplayResponse
      "0e00000005000000030000006761700200000003000000000000000200000070"
      "330400000000000000020000007034",
      // 15: SessionCloseRequest
      "0f0000000400000061636d65020000006c37",
      // 16: SessionCloseResponse
      "1000000003000000030000006279650b000000000000000600000000000000",
      // 17: StatsRequest
      "11000000",
      // 18: StatsResponse
      "1200000092100000000000002823000000000000010000000100000003000000"
      "0400000005000000000000000600000000000000070000000000000008000000"
      "00000000010000000c0000000000000000010000000000000100000007000000"
      "706c616e6e6572040000004f50454e0300000000000000010000000400000061"
      "636d65020000006c37000000000000000000000440000000000000f43f000000"
      "0000001e40020000000000000009000000000000000f000000000000002c0100"
      "0000000000070000007374616e64627904000000000000000100000000000000"
      "02000000000000000000000000000e4001000000010000006305000000000000"
      "00010000000100000067d6ffffffffffffff0100000001000000740300000000"
      "000000000000000000f83f010000000100000068040000000000000000000000"
      "0000e03fcdccccccccccec3fae47e17a14aeef3f000000000000004001000000"
      "01000000720600000000000000000000000000d03f000000000000e83f000000"
      "000000f03f000000000000104060ea000000000000",
      // 19: TraceDumpRequest
      "130000000903000000000000",
      // 20: TraceDumpResponse
      "1400000078030000000000000903000000000000020000007b7d",
      // 21: HandshakeRequest
      "150000000700000005000000",
      // 22: HandshakeResponse
      "16000000010000000300000001000000020000006e6f",
      // 23: SessionReplAppendRequest
      "170000000400000061636d65020000006c370200000003000000020000006561"
      "0a00000004000000030000004d0000000000000004000000000000000b000000"
      "000000000600000001000000cdab00000000000001000000",
      // 24: SessionReplAppendResponse
      "1800000007000000050000007374616c6505000000000000000a000000000000"
      "00",
      // 25: SessionReplSnapshotRequest
      "190000000400000061636d65020000006c37040000000000000006000000736e"
      "6170007f",
      // 26: SessionReplSnapshotResponse
      "1a00000000000000010000007804000000000000000800000000000000",
      // 27: SessionStatusRequest
      "1b0000000400000061636d65020000006c37",
      // 28: SessionStatusResponse
      "1c00000000000000020000006532070000007374616e64627904000000000000"
      "000b000000000000000a00000000000000",
  };
  const std::vector<std::string> payloads = goldenPayloads();
  ASSERT_EQ(payloads.size(), 28u);
  ASSERT_EQ(golden.size(), payloads.size());
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    const auto tag = static_cast<std::uint32_t>(k + 1);
    EXPECT_EQ(static_cast<std::uint32_t>(service::peekType(payloads[k])), tag);
    EXPECT_EQ(toHex(payloads[k]), golden[k]) << "frame type " << tag;
  }
}

/// `payload` with the little-endian u32 at `offset` replaced by `count`.
std::string forgeCount(std::string payload, std::size_t offset,
                       std::uint32_t count) {
  for (std::size_t k = 0; k < 4; ++k)
    payload[offset + k] = static_cast<char>(count >> (8 * k));
  return payload;
}

TEST(Protocol, ForgedElementCountsAreTypedErrorsNotAllocations) {
  // Every wire value is at least 4 bytes, so a count the rest of the payload
  // cannot hold is rejected as IpcError before anything is allocated — a
  // std::bad_alloc would escape every caller's catch of rfsm::Error.
  constexpr std::uint32_t kForged = 1u << 31;
  const auto last = [](const std::string& payload) {
    return payload.size() - 4;
  };
  const std::string plan = service::encodePlanResponse({});
  EXPECT_THROW(
      service::decodePlanResponse(forgeCount(plan, last(plan), kForged)),
      ipc::IpcError);
  const std::string shard = service::encodeShardResponse({});
  EXPECT_THROW(
      service::decodeShardResponse(forgeCount(shard, last(shard), kForged)),
      ipc::IpcError);
  const std::string replay = service::encodeSessionReplayResponse({});
  EXPECT_THROW(service::decodeSessionReplayResponse(
                   forgeCount(replay, last(replay), kForged)),
               ipc::IpcError);
  // Stats: the breaker count follows the tag, pid, uptime, draining flag,
  // health row and plan-cache row; the rolling-window count ends the frame.
  const std::string stats = service::encodeStatsResponse({});
  constexpr std::size_t kBreakerCountOffset = 4 + 8 + 8 + 4 + 44 + 20;
  EXPECT_THROW(service::decodeStatsResponse(
                   forgeCount(stats, kBreakerCountOffset, kForged)),
               ipc::IpcError);
  EXPECT_THROW(
      service::decodeStatsResponse(forgeCount(stats, last(stats), kForged)),
      ipc::IpcError);

  // The bound is exact: empty programs are 4 bytes each, so a count that
  // fills the payload decodes and one more does not.
  service::PlanResponse empties;
  empties.programs = {"", "", ""};
  const std::string full = service::encodePlanResponse(empties);
  EXPECT_EQ(service::decodePlanResponse(full).programs, empties.programs);
  EXPECT_THROW(
      service::decodePlanResponse(forgeCount(full, full.size() - 16, 4)),
      ipc::IpcError);
}

TEST(Protocol, StatusNamesMatchContract) {
  EXPECT_STREQ(toString(WorkResult::Status::kOk), "OK");
  EXPECT_STREQ(toString(WorkResult::Status::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(toString(WorkResult::Status::kShed), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(toString(WorkResult::Status::kUnavailable), "UNAVAILABLE");
}

TEST(Handshake, RequestRoundTrip) {
  service::HandshakeRequest request;
  request.version = 7;
  request.features = 0x5u;
  const std::string wire = service::encodeHandshakeRequest(request);
  EXPECT_EQ(service::peekType(wire),
            service::MessageType::kHandshakeRequest);
  const auto back = service::decodeHandshakeRequest(wire);
  EXPECT_EQ(back.version, 7u);
  EXPECT_EQ(back.features, 0x5u);
}

TEST(Handshake, ResponseRoundTrip) {
  service::HandshakeResponse response;
  response.accepted = true;
  response.version = service::kProtocolVersion;
  response.features = service::kFeatureCrc32c;
  response.error = "";
  const std::string wire = service::encodeHandshakeResponse(response);
  EXPECT_EQ(service::peekType(wire),
            service::MessageType::kHandshakeResponse);
  const auto back = service::decodeHandshakeResponse(wire);
  EXPECT_TRUE(back.accepted);
  EXPECT_EQ(back.version, service::kProtocolVersion);
  EXPECT_EQ(back.features, service::kFeatureCrc32c);
  EXPECT_TRUE(back.error.empty());
}

TEST(Handshake, MatchingVersionIsAcceptedWithFeaturesMasked) {
  service::HandshakeRequest request;
  request.features = 0xffffffffu;  // peer claims features we never heard of
  const auto response = service::answerHandshake(request);
  EXPECT_TRUE(response.accepted);
  EXPECT_EQ(response.version, service::kProtocolVersion);
  EXPECT_EQ(response.features, service::kFeatureCrc32c);
}

TEST(Handshake, VersionMismatchIsRefusedNotDowngraded) {
  service::HandshakeRequest request;
  request.version = service::kProtocolVersion + 1;
  const auto response = service::answerHandshake(request);
  EXPECT_FALSE(response.accepted);
  EXPECT_EQ(response.features, 0u);
  EXPECT_NE(response.error.find("protocol version mismatch"),
            std::string::npos);
}

}  // namespace
}  // namespace rfsm
