#include "service/protocol.hpp"

#include <bit>
#include <tuple>
#include <type_traits>

#include "core/jsr.hpp"
#include "core/program.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "service/plan_cache.hpp"
#include "util/ipc.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace rfsm::service {

MigrationContext makeInstance(const BatchSpec& spec, std::uint64_t index) {
  Rng gen = Rng(spec.seed).substream(kGenStreamBase + index);
  RandomMachineSpec sourceSpec;
  sourceSpec.stateCount = spec.stateCount;
  sourceSpec.inputCount = spec.inputCount;
  sourceSpec.outputCount = spec.outputCount;
  sourceSpec.name = "batch" + std::to_string(index);
  const Machine source = randomMachine(sourceSpec, gen);
  MutationSpec mutation;
  mutation.deltaCount = spec.deltaCount;
  mutation.newStateCount = spec.newStateCount;
  mutation.name = sourceSpec.name + "'";
  const Machine target = mutateMachine(source, mutation, gen);
  return MigrationContext(source, target);
}

BatchPlanFn plannerFn(const std::string& name) {
  if (name == "jsr") {
    return [](const MigrationContext& context, Rng&) {
      return planJsr(context);
    };
  }
  if (name == "greedy") {
    return [](const MigrationContext& context, Rng&) {
      return planGreedy(context);
    };
  }
  if (name == "ea") {
    return [](const MigrationContext& context, Rng& rng) {
      return planEvolutionary(context, EvolutionConfig{}, rng).program;
    };
  }
  throw Error("unknown batch planner '" + name + "' (jsr|greedy|ea)");
}

BatchPlanFn plannerFn(const BatchSpec& spec, const CancelToken* cancel) {
  if (spec.planner == "ea") {
    EvolutionConfig config;
    config.populationSize = spec.eaPopulation;
    config.generations = spec.eaGenerations;
    config.cancel = cancel;
    return [config](const MigrationContext& context, Rng& rng) {
      return planEvolutionary(context, config, rng).program;
    };
  }
  return plannerFn(spec.planner);
}

namespace {

/// The pre-split planRange body: always generates and plans, never touches
/// the plan-result cache.  Quorum verification reaches it via kBypass.
std::vector<std::string> planRangeUncached(const BatchSpec& spec,
                                           std::uint64_t lo, std::uint64_t hi,
                                           const CancelToken* cancel,
                                           int jobs) {
  std::vector<MigrationContext> instances;
  instances.reserve(static_cast<std::size_t>(hi - lo));
  for (std::uint64_t k = lo; k < hi; ++k) {
    pollCancel(cancel, "service.generate");
    instances.push_back(makeInstance(spec, k));
  }

  BatchOptions options;
  options.jobs = jobs;
  options.seed = spec.seed;
  options.substreamBase = lo;  // the bit-identical-shard contract
  options.cancel = cancel;
  const std::vector<ReconfigurationProgram> programs =
      planAll(instances, plannerFn(spec, cancel), options);

  std::vector<std::string> texts;
  texts.reserve(programs.size());
  for (std::size_t k = 0; k < programs.size(); ++k)
    texts.push_back(programToText(instances[k], programs[k]));
  return texts;
}

}  // namespace

std::vector<std::string> planRange(const BatchSpec& spec, std::uint64_t lo,
                                   std::uint64_t hi, const CancelToken* cancel,
                                   int jobs, PlanCacheMode mode) {
  RFSM_CHECK(lo <= hi && hi <= spec.instanceCount,
             "shard range out of bounds");
  if (mode == PlanCacheMode::kBypass || !planCacheEnabled())
    return planRangeUncached(spec, lo, hi, cancel, jobs);

  // Serve what the plan cache holds, recompute the gaps as contiguous runs
  // (each run plans with substreamBase = its own absolute lo, so the bytes
  // match the unsharded computation no matter how hits fragment the range).
  const std::size_t count = static_cast<std::size_t>(hi - lo);
  std::vector<std::string> texts(count);
  std::vector<bool> cached(count, false);
  for (std::uint64_t k = lo; k < hi; ++k) {
    pollCancel(cancel, "service.generate");
    if (auto hit = planCacheLookup(planCacheKey(spec, k))) {
      texts[static_cast<std::size_t>(k - lo)] = *std::move(hit);
      cached[static_cast<std::size_t>(k - lo)] = true;
    }
  }
  std::uint64_t runLo = lo;
  while (runLo < hi) {
    if (cached[static_cast<std::size_t>(runLo - lo)]) {
      ++runLo;
      continue;
    }
    std::uint64_t runHi = runLo + 1;
    while (runHi < hi && !cached[static_cast<std::size_t>(runHi - lo)])
      ++runHi;
    std::vector<std::string> fresh =
        planRangeUncached(spec, runLo, runHi, cancel, jobs);
    for (std::uint64_t k = runLo; k < runHi; ++k) {
      planCacheStore(planCacheKey(spec, k),
                     fresh[static_cast<std::size_t>(k - runLo)]);
      texts[static_cast<std::size_t>(k - lo)] =
          std::move(fresh[static_cast<std::size_t>(k - runLo)]);
    }
    runLo = runHi;
  }
  return texts;
}

// --- Wire codec -------------------------------------------------------------
//
// A frame is its MessageType tag (u32) followed by the fields of its message
// struct, in the order of that struct's field list below.  One generic
// writer and one generic reader interpret every list, so a frame has exactly
// one definition.  A list is the wire order, which is not always the
// declaration order (PlanResponse sends its programs last); editing a list
// changes the layout, so it needs a kProtocolVersion bump and a regenerated
// Protocol.GoldenBytesPinTheWireLayout table.

namespace {

/// Declares the field list of `Type` in wire order; `m` names the message.
#define RFSM_WIRE_FIELDS(Type, ...)                        \
  auto fields(Type& m) { return std::tie(__VA_ARGS__); } \
  auto fields(const Type& m) { return std::tie(__VA_ARGS__); }

RFSM_WIRE_FIELDS(BatchSpec, m.stateCount, m.inputCount, m.outputCount,
                 m.deltaCount, m.newStateCount, m.instanceCount, m.seed,
                 m.planner, m.eaPopulation, m.eaGenerations)
RFSM_WIRE_FIELDS(trace::TraceContext, m.traceIdHi, m.traceIdLo, m.spanId,
                 m.sampled)
RFSM_WIRE_FIELDS(PlanRequest, m.spec, m.deadlineMs, m.requestId, m.lo, m.hi,
                 m.context)
RFSM_WIRE_FIELDS(PlanResponse, m.status, m.error, m.retries, m.crashes,
                 m.cacheHits, m.programs)
RFSM_WIRE_FIELDS(ShardRequest, m.spec, m.lo, m.hi, m.deadlineNs, m.context)
RFSM_WIRE_FIELDS(ShardResponse, m.status, m.error, m.programs)
RFSM_WIRE_FIELDS(HealthResponse, m.healthy, m.workersAlive,
                 m.workersConfigured, m.queueDepth, m.crashes, m.retries,
                 m.shed)
RFSM_WIRE_FIELDS(metrics::CounterSample, m.name, m.value)
RFSM_WIRE_FIELDS(metrics::GaugeSample, m.name, m.value)
RFSM_WIRE_FIELDS(metrics::TimerSample, m.name, m.count, m.totalMs)
RFSM_WIRE_FIELDS(metrics::HistogramSample, m.name, m.count, m.p50Ms, m.p90Ms,
                 m.p99Ms, m.maxMs)
RFSM_WIRE_FIELDS(metrics::RollingSample, m.name, m.count, m.p50Ms, m.p90Ms,
                 m.p99Ms, m.maxMs, m.windowMs)
RFSM_WIRE_FIELDS(metrics::Snapshot, m.counters, m.gauges, m.timers,
                 m.histograms, m.rolling)
RFSM_WIRE_FIELDS(StatsResponse::PlanCacheStats, m.enabled, m.size,
                 m.capacity)
RFSM_WIRE_FIELDS(StatsResponse::BreakerStats, m.name, m.state, m.trips)
RFSM_WIRE_FIELDS(StatsResponse::SessionStats, m.tenant, m.name, m.priority,
                 m.weight, m.vtime, m.tokensRemaining, m.queued, m.applied,
                 m.walAgeMs, m.snapshotAgeMs, m.role, m.epoch)
RFSM_WIRE_FIELDS(StatsResponse, m.pid, m.uptimeMs, m.draining, m.workers,
                 m.planCache, m.breakers, m.sessions, m.openSessions,
                 m.schedulerDepth, m.schedulerVirtualNow, m.metrics)
RFSM_WIRE_FIELDS(TraceDumpRequest, m.clientSteadyNs)
RFSM_WIRE_FIELDS(TraceDumpResponse, m.serverSteadyNs, m.clientSteadyNs,
                 m.traceJson)
RFSM_WIRE_FIELDS(SessionOpenRequest, m.tenant, m.name, m.priority, m.weight,
                 m.planner, m.stateCount, m.inputCount, m.outputCount, m.seed,
                 m.resume)
RFSM_WIRE_FIELDS(SessionOpenResponse, m.status, m.error, m.lastApplied,
                 m.retryAfterMs)
RFSM_WIRE_FIELDS(SessionMutateRequest, m.tenant, m.name, m.seq, m.deltaCount,
                 m.newStateCount, m.mutationSeed, m.defer, m.ackSeq,
                 m.context)
RFSM_WIRE_FIELDS(SessionMutateResponse, m.status, m.error, m.seq, m.program,
                 m.compactedFrom, m.deltasPlanned, m.deltasRaw,
                 m.retryAfterMs)
RFSM_WIRE_FIELDS(SessionReplayRequest, m.tenant, m.name, m.fromSeq, m.toSeq)
RFSM_WIRE_FIELDS(SessionReplayResponse::Entry, m.seq, m.program)
RFSM_WIRE_FIELDS(SessionReplayResponse, m.status, m.error, m.entries)
RFSM_WIRE_FIELDS(SessionCloseRequest, m.tenant, m.name)
RFSM_WIRE_FIELDS(SessionCloseResponse, m.status, m.error, m.mutationsApplied,
                 m.plans)
RFSM_WIRE_FIELDS(SessionReplAppendRequest, m.tenant, m.name, m.priority,
                 m.weight, m.planner, m.stateCount, m.inputCount,
                 m.outputCount, m.seed, m.epoch, m.seq, m.deltaCount,
                 m.newStateCount, m.mutationSeed, m.defer)
RFSM_WIRE_FIELDS(SessionReplAppendResponse, m.status, m.error, m.epoch,
                 m.lastAccepted)
RFSM_WIRE_FIELDS(SessionReplSnapshotRequest, m.tenant, m.name, m.epoch,
                 m.snapshot)
RFSM_WIRE_FIELDS(SessionReplSnapshotResponse, m.status, m.error, m.epoch,
                 m.lastAccepted)
RFSM_WIRE_FIELDS(SessionStatusRequest, m.tenant, m.name)
RFSM_WIRE_FIELDS(SessionStatusResponse, m.status, m.error, m.role, m.epoch,
                 m.lastAccepted, m.applied)
RFSM_WIRE_FIELDS(HandshakeRequest, m.version, m.features)
RFSM_WIRE_FIELDS(HandshakeResponse, m.accepted, m.version, m.features,
                 m.error)

#undef RFSM_WIRE_FIELDS

/// The body of a frame that is nothing but its tag.
struct TagOnly {};
std::tuple<> fields(const TagOnly&) { return {}; }

/// The last valid value of each enum a frame carries; decoding rejects any
/// wire value above it.
constexpr WorkResult::Status lastValue(WorkResult::Status) {
  return WorkResult::Status::kUnavailable;
}
constexpr SessionStatus lastValue(SessionStatus) {
  return SessionStatus::kStaleEpoch;
}

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <class T>
inline constexpr bool kIs64BitInteger =
    std::is_same_v<T, std::uint64_t> || std::is_same_v<T, std::int64_t>;

/// The generic writer.  Ints, bools and enums ride as u32; doubles ride as
/// IEEE-754 bit patterns — exact round-trip, no locale or precision games;
/// strings and vectors carry a u32 length prefix; structs go inline.
template <class T>
void put(ipc::MessageWriter& writer, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    writer.str(value);
  } else if constexpr (std::is_same_v<T, double>) {
    writer.u64(std::bit_cast<std::uint64_t>(value));
  } else if constexpr (kIs64BitInteger<T>) {
    writer.u64(static_cast<std::uint64_t>(value));
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    static_assert(sizeof(T) <= 4, "64-bit integers ride as u64");
    writer.u32(static_cast<std::uint32_t>(value));
  } else if constexpr (kIsVector<T>) {
    writer.u32(static_cast<std::uint32_t>(value.size()));
    for (const auto& element : value) put(writer, element);
  } else {
    std::apply([&](const auto&... field) { (put(writer, field), ...); },
               fields(value));
  }
}

/// The generic reader, mirroring put.  Throws IpcError on truncation, an
/// out-of-range enum, or an element count the payload cannot hold.
template <class T>
void get(ipc::MessageReader& reader, T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    value = reader.str();
  } else if constexpr (std::is_same_v<T, double>) {
    value = std::bit_cast<double>(reader.u64());
  } else if constexpr (kIs64BitInteger<T>) {
    value = static_cast<T>(reader.u64());
  } else if constexpr (std::is_same_v<T, bool>) {
    value = reader.u32() != 0;
  } else if constexpr (std::is_enum_v<T>) {
    const std::uint32_t raw = reader.u32();
    if (raw > static_cast<std::uint32_t>(lastValue(T{})))
      throw ipc::IpcError("unknown status code " + std::to_string(raw));
    value = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T>) {
    value = static_cast<T>(reader.u32());
  } else if constexpr (kIsVector<T>) {
    // Every wire value is at least 4 bytes, so a larger count is a lie —
    // and trusting it would turn a forged frame into a std::bad_alloc that
    // no caller's catch of rfsm::Error contains.
    const std::uint32_t count = reader.u32();
    if (count > reader.remaining() / 4)
      throw ipc::IpcError("element count " + std::to_string(count) +
                          " exceeds the payload");
    value.resize(count);
    for (auto& element : value) get(reader, element);
  } else {
    std::apply([&](auto&... field) { (get(reader, field), ...); },
               fields(value));
  }
}

template <class Msg>
std::string encodeFrame(MessageType type, const Msg& message) {
  ipc::MessageWriter writer;
  put(writer, type);
  put(writer, message);
  return writer.take();
}

template <class Msg>
Msg decodeFrame(MessageType type, const std::string& payload) {
  ipc::MessageReader reader(payload);
  const std::uint32_t tag = reader.u32();
  if (tag != static_cast<std::uint32_t>(type))
    throw ipc::IpcError("unexpected message type " + std::to_string(tag) +
                        " (expected " +
                        std::to_string(static_cast<std::uint32_t>(type)) +
                        ")");
  Msg message;
  get(reader, message);
  reader.expectEnd();
  return message;
}

}  // namespace

/// Defines encodeX/decodeX for message struct X, framed as MessageType::kX.
#define RFSM_WIRE_CODEC(Msg)                                 \
  std::string encode##Msg(const Msg& message) {              \
    return encodeFrame(MessageType::k##Msg, message);        \
  }                                                          \
  Msg decode##Msg(const std::string& payload) {              \
    return decodeFrame<Msg>(MessageType::k##Msg, payload);   \
  }

RFSM_WIRE_CODEC(PlanRequest)
RFSM_WIRE_CODEC(PlanResponse)
RFSM_WIRE_CODEC(ShardRequest)
RFSM_WIRE_CODEC(ShardResponse)
RFSM_WIRE_CODEC(HealthResponse)
RFSM_WIRE_CODEC(StatsResponse)
RFSM_WIRE_CODEC(TraceDumpRequest)
RFSM_WIRE_CODEC(TraceDumpResponse)
RFSM_WIRE_CODEC(SessionOpenRequest)
RFSM_WIRE_CODEC(SessionOpenResponse)
RFSM_WIRE_CODEC(SessionMutateRequest)
RFSM_WIRE_CODEC(SessionMutateResponse)
RFSM_WIRE_CODEC(SessionReplayRequest)
RFSM_WIRE_CODEC(SessionReplayResponse)
RFSM_WIRE_CODEC(SessionCloseRequest)
RFSM_WIRE_CODEC(SessionCloseResponse)
RFSM_WIRE_CODEC(SessionReplAppendRequest)
RFSM_WIRE_CODEC(SessionReplAppendResponse)
RFSM_WIRE_CODEC(SessionReplSnapshotRequest)
RFSM_WIRE_CODEC(SessionReplSnapshotResponse)
RFSM_WIRE_CODEC(SessionStatusRequest)
RFSM_WIRE_CODEC(SessionStatusResponse)
RFSM_WIRE_CODEC(HandshakeRequest)
RFSM_WIRE_CODEC(HandshakeResponse)

#undef RFSM_WIRE_CODEC

std::string encodeHealthRequest() {
  return encodeFrame(MessageType::kHealthRequest, TagOnly{});
}

std::string encodeWarmupRequest() {
  return encodeFrame(MessageType::kWarmupRequest, TagOnly{});
}

std::string encodeWarmupResponse() {
  return encodeFrame(MessageType::kWarmupResponse, TagOnly{});
}

void decodeWarmupResponse(const std::string& payload) {
  decodeFrame<TagOnly>(MessageType::kWarmupResponse, payload);
}

std::string encodeStatsRequest() {
  return encodeFrame(MessageType::kStatsRequest, TagOnly{});
}

void decodeStatsRequest(const std::string& payload) {
  decodeFrame<TagOnly>(MessageType::kStatsRequest, payload);
}

MessageType peekType(const std::string& payload) {
  ipc::MessageReader reader(payload);
  const std::uint32_t tag = reader.u32();
  if (tag < static_cast<std::uint32_t>(MessageType::kPlanRequest) ||
      tag > static_cast<std::uint32_t>(kLastMessageType))
    throw ipc::IpcError("unknown message type " + std::to_string(tag));
  return static_cast<MessageType>(tag);
}

const char* toString(SessionStatus status) {
  switch (status) {
    case SessionStatus::kOk: return "OK";
    case SessionStatus::kAccepted: return "ACCEPTED";
    case SessionStatus::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case SessionStatus::kDraining: return "DRAINING";
    case SessionStatus::kNotFound: return "NOT_FOUND";
    case SessionStatus::kBadSequence: return "BAD_SEQUENCE";
    case SessionStatus::kFailed: return "FAILED";
    case SessionStatus::kStaleEpoch: return "STALE_EPOCH";
  }
  return "FAILED";
}

HandshakeResponse answerHandshake(const HandshakeRequest& request) {
  HandshakeResponse response;
  response.version = kProtocolVersion;
  if (request.version != kProtocolVersion) {
    // A different generation may frame its messages differently (the CRC
    // trailer itself arrived in generation 1); refuse loudly rather than
    // misparse quietly.
    response.accepted = false;
    response.features = 0;
    response.error = "protocol version mismatch (peer " +
                     std::to_string(request.version) + ", server " +
                     std::to_string(kProtocolVersion) + ")";
    return response;
  }
  response.accepted = true;
  response.features = request.features & kFeatureCrc32c;
  return response;
}

}  // namespace rfsm::service
