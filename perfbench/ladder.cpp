// The traced ladder: the same inputs pushed through one more layer per
// rung, each call wrapped in a span, so adjacent rungs differ by exactly
// one layer's self time.
//
//   R0  planRange(..., kBypass)            planner only, in-process
//   R1  Server::handlePlan                 + supervisor dispatch, fd-3 worker
//   R2  exchangeEndpoint, cache off        + protocol codec, socket, server
//   R2m exchangeEndpoint, cache on, miss   (R2 with the cache consulted)
//   R3  exchangeEndpoint, cache on, hit    the cache answers
//
//   S0  SessionEngine::apply               planner + compaction only
//   S1  SessionService::mutate, volatile   + admission, fair-scheduler handoff
//   S2  SessionService::mutate, state dir  + WAL append and fsync
//   S3  SessionStream to rfsmd             + protocol codec, socket, server
//   S4  SessionStream to rfsmd + standby   + quorum replication ship
//
// Plan rungs use one-shard (4-instance) requests drawn like the workload's,
// so no rung gains from parallelism the one below it lacks.  On plan_ea they
// plan with jsr: an EA request's run-to-run noise on a shared VM is larger
// than every layer above the planner, and the layers only see the request
// and response sizes, which the shapes fix.  The EA itself is timed by the
// micro loops, which time single module functions on the same instances.
#include <memory>
#include <stdexcept>

#include "core/jsr.hpp"
#include "core/planners.hpp"
#include "daemons.hpp"
#include "service/client.hpp"
#include "service/plan_cache.hpp"
#include "service/server.hpp"
#include "util/fsio.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace service = rfsm::service;

namespace {

constexpr std::int64_t kRpcTimeoutMs = 60000;
constexpr int kSessionRungMutations = 64;
constexpr int kSessionWarmup = 4;  ///< first mutations per rung, untimed
constexpr int kReplayReps = 16;
constexpr int kCodecReps = 200;
constexpr int kFsyncAppends = 64;
constexpr std::size_t kWalRecordBytes = 64;

service::PlanResponse rpc(const rfsm::ipc::Endpoint& endpoint,
                          const service::PlanRequest& request) {
  const auto reply = service::exchangeEndpoint(
      endpoint, service::encodePlanRequest(request), kRpcTimeoutMs);
  if (!reply) throw std::runtime_error("ladder RPC got no reply");
  return service::decodePlanResponse(*reply);
}

std::vector<service::PlanRequest> ladderRequests(const Args& args) {
  const bool ea = args.workload == "plan_ea";
  PlanGenerator generator(ea ? "plan_ea" : "plan_small_mix", args.seed, 7);
  rfsm::Rng seeds = rfsm::Rng(args.seed).substream(0x1add);
  std::vector<service::PlanRequest> requests(48);
  for (service::PlanRequest& request : requests) {
    request = generator.next();
    request.spec.instanceCount = 4;
    request.spec.planner = "jsr";
    request.spec.seed = seeds();  // unique, so R2m is always a miss
  }
  return requests;
}

class Ladder {
 public:
  Ladder(const Args& args, Report& report, Spans& spans)
      : args_(args), report_(report), spans_(spans) {}

  void run() {
    const auto requests = ladderRequests(args_);
    const auto programs = planRungs(requests);
    micro(requests, programs);
    sessionRungs();
  }

 private:
  Daemon& spawn(Role role, const std::string& socket,
                const std::string& stateDir = "",
                const std::string& replica = "") {
    daemons_.push_back(std::make_unique<Daemon>(
        args_.rfsmd,
        daemonArgs(role, socket, stateDir, replica, args_.rfsmd), socket));
    return *daemons_.back();
  }

  void expectSame(const std::vector<std::string>& want,
                  const service::PlanResponse& got, const char* rung) {
    ++report_.attempted;
    report_.counts["retries"] += static_cast<double>(got.retries);
    report_.counts["crashes"] += static_cast<double>(got.crashes);
    if (got.status != rfsm::WorkResult::Status::kOk || got.programs != want)
      report_.fail(std::string("ladder ") + rung + " differs from R0");
  }

  std::vector<std::vector<std::string>> planRungs(
      const std::vector<service::PlanRequest>& requests) {
    Daemon& uncached = spawn(Role::kPlanUncached, "ladder-r2.sock");
    Daemon& cached = spawn(Role::kPlanCached, "ladder-r3.sock");
    service::ServerOptions options;
    options.socketPath = "ladder-r1.sock";
    options.workerBinary = args_.rfsmd;
    options.shardSize = 4;
    options.pool.workers = 2;
    options.pool.prefork = true;
    options.pool.warmupPayload = service::encodeWarmupRequest();
    service::Server server(options);
    uncached.waitReady();
    cached.waitReady();

    std::vector<std::vector<std::string>> programs;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      // The first request warms every rung and is not timed.
      spans_.setEnabled(i > 0);
      const service::PlanRequest& request = requests[i];
      const service::BatchSpec& spec = request.spec;
      std::vector<std::string> want;
      {
        Spans::Scope span(spans_, "ladder.R0");
        want = service::planRange(spec, 0, spec.instanceCount, nullptr, 1,
                                  service::PlanCacheMode::kBypass);
      }
      service::PlanResponse got;
      {
        Spans::Scope span(spans_, "ladder.R1");
        got = server.handlePlan(request);
      }
      expectSame(want, got, "R1");
      {
        Spans::Scope span(spans_, "ladder.R2");
        got = rpc(uncached.endpoint(), request);
      }
      expectSame(want, got, "R2");
      {
        Spans::Scope span(spans_, "ladder.R2m");
        got = rpc(cached.endpoint(), request);
      }
      expectSame(want, got, "R2m");
      {
        Spans::Scope span(spans_, "ladder.R3");
        got = rpc(cached.endpoint(), request);
      }
      expectSame(want, got, "R3");
      if (got.cacheHits != spec.instanceCount)
        report_.fail("ladder R3 was not served from the plan cache");
      const std::string error = checkPrograms(spec, 0, want);
      if (!error.empty()) report_.fail("ladder: " + error);
      programs.push_back(std::move(want));
    }
    spans_.setEnabled(false);
    stopDaemons();
    return programs;
  }

  void micro(const std::vector<service::PlanRequest>& requests,
             const std::vector<std::vector<std::string>>& programs) {
    spans_.setEnabled(true);
    rfsm::Rng rng = rfsm::Rng(args_.seed).substream(0x3c0);
    double evaluations = 0, runs = 0, responseBytes = 0;
    for (std::size_t i = 1; i < requests.size() && i <= 8; ++i) {
      const service::BatchSpec& spec = requests[i].spec;
      const rfsm::MigrationContext context = service::makeInstance(spec, 0);
      std::vector<int> order(rfsm::loopDeltaCount(context));
      for (std::size_t k = 0; k < order.size(); ++k)
        order[k] = static_cast<int>(k);
      {
        Spans::Scope span(spans_, "micro.decode", kCodecReps);
        for (int rep = 0; rep < kCodecReps; ++rep) {
          rng.shuffle(order);
          (void)rfsm::decodeOrder(context, order);
        }
      }
      {
        Spans::Scope span(spans_, "micro.jsr", kCodecReps / 4);
        for (int rep = 0; rep < kCodecReps / 4; ++rep)
          (void)rfsm::planJsr(context);
      }
      if (i <= 4) {
        rfsm::EvolutionConfig config;
        config.populationSize = spec.eaPopulation;
        config.generations = spec.eaGenerations;
        Spans::Scope span(spans_, "micro.ea");
        evaluations += rfsm::planEvolutionary(context, config, rng).evaluations;
        ++runs;
      }

      service::PlanResponse response;
      response.status = rfsm::WorkResult::Status::kOk;
      response.programs = programs[i];
      const std::string requestBytes = service::encodePlanRequest(requests[i]);
      const std::string responseFrame = service::encodePlanResponse(response);
      responseBytes += static_cast<double>(responseFrame.size());
      {
        Spans::Scope span(spans_, "micro.plan_encode", kCodecReps);
        for (int rep = 0; rep < kCodecReps; ++rep) {
          (void)service::encodePlanRequest(requests[i]);
          (void)service::encodePlanResponse(response);
        }
      }
      {
        Spans::Scope span(spans_, "micro.plan_decode", kCodecReps);
        for (int rep = 0; rep < kCodecReps; ++rep) {
          (void)service::decodePlanRequest(requestBytes);
          (void)service::decodePlanResponse(responseFrame);
        }
      }
    }
    report_.counts["ea_evaluations"] = evaluations;
    report_.counts["ea_runs"] = runs;
    report_.counts["response_bytes"] =
        responseBytes / static_cast<double>(std::min<std::size_t>(
                            8, requests.size() - 1));

    // Plan-cache lookups (key derivation included) against a warm cache
    // holding the ladder's programs.
    service::configurePlanCache(4096);
    std::size_t keys = 0;
    for (std::size_t i = 0; i < requests.size(); ++i)
      for (std::size_t k = 0; k < programs[i].size(); ++k, ++keys)
        service::planCacheStore(service::planCacheKey(requests[i].spec, k),
                                programs[i][k]);
    {
      Spans::Scope span(spans_, "micro.cache_lookup", keys * 16);
      for (int rep = 0; rep < 16; ++rep)
        for (std::size_t i = 0; i < requests.size(); ++i)
          for (std::size_t k = 0; k < programs[i].size(); ++k)
            if (!service::planCacheLookup(
                    service::planCacheKey(requests[i].spec, k)))
              report_.fail("in-process plan cache lost an entry");
    }
    service::configurePlanCache(0);

    // One WAL-record-sized durable append, as the session journal does.
    {
      rfsm::ipc::Fd fd = rfsm::fsio::openAppend("ladder-fsync.log");
      const std::string record(kWalRecordBytes, 'r');
      Spans::Scope span(spans_, "micro.fsync", kFsyncAppends);
      for (int k = 0; k < kFsyncAppends; ++k)
        rfsm::fsio::appendDurable(fd.get(), "ladder-fsync.log", record);
    }
    spans_.setEnabled(false);
  }

  void sessionRungs() {
    SessionGenerator generator(args_.seed, 7, 0);
    const service::SessionConfig& config = generator.config();
    std::vector<service::MutationRecord> records;
    while (records.size() < kSessionRungMutations) {
      const SessionOp op = generator.next();
      if (!op.replay) records.push_back(op.record);
    }
    records.back().defer = false;  // end on a flush

    Daemon& solo = spawn(Role::kSessionSolo, "ladder-s3.sock", "ladder-s3");
    Daemon& standby =
        spawn(Role::kStandby, "ladder-s4s.sock", "ladder-s4s");
    Daemon& primary = spawn(Role::kPrimary, "ladder-s4p.sock", "ladder-s4p",
                            "ladder-s4s.sock");
    service::SessionServiceOptions options;
    options.executors = 2;
    options.snapshotEvery = 32;
    service::SessionService volatileStore(options);
    options.stateDir = "ladder-s2";
    service::SessionService durableStore(options);
    solo.waitReady();
    standby.waitReady();
    primary.waitReady();
    service::SessionStream::Options soloOptions;
    soloOptions.endpoint = solo.endpoint();
    service::SessionStream soloStream(soloOptions);
    service::SessionStream::Options primaryOptions;
    primaryOptions.endpoint = primary.endpoint();
    service::SessionStream primaryStream(primaryOptions);

    const auto open = openRequest(config);
    if (volatileStore.open(open).status != service::SessionStatus::kOk ||
        durableStore.open(open).status != service::SessionStatus::kOk ||
        soloStream.open(open).status != service::SessionStatus::kOk ||
        primaryStream.open(open).status != service::SessionStatus::kOk)
      throw std::runtime_error("ladder session open failed");

    service::SessionEngine engine(config);
    double planned = 0, raw = 0;
    std::string lastProgram;
    for (int k = 0; k < kSessionRungMutations; ++k) {
      spans_.setEnabled(k >= kSessionWarmup);
      const service::MutationRecord& record = records[k];
      const auto request = mutateRequest(config, record);
      service::PlanOutcome outcome;
      {
        Spans::Scope span(spans_, "ladder.S0");
        outcome = engine.apply(record);
      }
      planned += outcome.deltasPlanned;
      raw += outcome.deltasRaw;
      if (outcome.planned) lastProgram = outcome.program;
      const auto expect = [&](const service::SessionMutateResponse& got,
                              const char* rung) {
        ++report_.attempted;
        if (got.seq != record.seq || got.program != outcome.program)
          report_.fail(std::string("ladder ") + rung + " differs from S0");
      };
      {
        Spans::Scope span(spans_, "ladder.S1");
        expect(volatileStore.mutate(request), "S1");
      }
      {
        Spans::Scope span(spans_, "ladder.S2");
        expect(durableStore.mutate(request), "S2");
      }
      {
        Spans::Scope span(spans_, "ladder.S3");
        expect(soloStream.mutate(request), "S3");
      }
      {
        Spans::Scope span(spans_, "ladder.S4");
        expect(primaryStream.mutate(request), "S4");
      }
    }
    report_.counts["ladder_deltas_planned"] = planned;
    report_.counts["ladder_deltas_raw"] = raw;

    service::SessionReplayRequest replay;
    replay.tenant = config.tenant;
    replay.name = config.name;
    replay.toSeq = records.size();
    replay.fromSeq = records.size() - 15;
    spans_.setEnabled(true);
    for (int rep = 0; rep < kReplayReps; ++rep) {
      {
        Spans::Scope span(spans_, "micro.session_replay");
        if (volatileStore.replay(replay).status != service::SessionStatus::kOk)
          report_.fail("ladder in-process replay failed");
      }
      Spans::Scope span(spans_, "ladder.S4_replay");
      if (primaryStream.replay(replay).status != service::SessionStatus::kOk)
        report_.fail("ladder replay via rfsmd failed");
    }

    // Mutate frame codec at the ladder's sizes.
    service::SessionMutateResponse response;
    response.status = service::SessionStatus::kOk;
    response.program = lastProgram;
    const auto request = mutateRequest(config, records.back());
    const std::string requestBytes = service::encodeSessionMutateRequest(request);
    const std::string responseBytes =
        service::encodeSessionMutateResponse(response);
    {
      Spans::Scope span(spans_, "micro.mutate_encode", kCodecReps);
      for (int rep = 0; rep < kCodecReps; ++rep) {
        (void)service::encodeSessionMutateRequest(request);
        (void)service::encodeSessionMutateResponse(response);
      }
    }
    {
      Spans::Scope span(spans_, "micro.mutate_decode", kCodecReps);
      for (int rep = 0; rep < kCodecReps; ++rep) {
        (void)service::decodeSessionMutateRequest(requestBytes);
        (void)service::decodeSessionMutateResponse(responseBytes);
      }
    }
    spans_.setEnabled(false);
    volatileStore.drain();
    durableStore.drain();
    stopDaemons();
  }

  void stopDaemons() {
    for (auto& daemon : daemons_) daemon->stop();
    daemons_.clear();
  }

  const Args& args_;
  Report& report_;
  Spans& spans_;
  std::vector<std::unique_ptr<Daemon>> daemons_;
};

}  // namespace

void runLadder(const Args& args, Report& report, Spans& spans) {
  Ladder(args, report, spans).run();
}

}  // namespace perfbench
