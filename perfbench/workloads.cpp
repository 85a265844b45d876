#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/apply.hpp"
#include "core/program.hpp"
#include "daemons.hpp"
#include "service/client.hpp"
#include "service/plan_cache.hpp"

namespace perfbench {

namespace service = rfsm::service;

namespace {

constexpr int kEaInstances = 8;
constexpr int kSmallInstances = 4;
constexpr std::size_t kHotSetSize = 32;
/// Of every 8 plan_small_mix requests, this many come from the hot set.
/// Not 4: at an even split the median falls in the gap between hit and
/// miss latencies and jumps between the two modes from run to run.
constexpr std::uint64_t kHotPerEight = 3;
constexpr std::uint64_t kDeferEvery = 4;
constexpr std::uint64_t kReplayEvery = 16;
constexpr std::uint64_t kReplayWindow = 16;
/// Mutations per session before the client closes it and opens the next.
constexpr std::size_t kSessionLength = 256;
/// Transcript entries a session client leaves unacknowledged.
constexpr std::uint64_t kUnacked = 32;
/// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 15;
/// Every kSampleEvery-th request of a client is re-planned in-process with
/// the plan cache bypassed and compared byte for byte.
constexpr std::uint64_t kSampleEvery = 32;
/// Traced runs record spans on alternate blocks of this many operations of
/// a client.  16 is a multiple of every period in the request streams (hot
/// share 8, defer 4, replay 16), so both halves see the same request mix.
/// Alternating single operations would give the traced half one hot request
/// in four instead of two, and its latency would read as tracing overhead.
constexpr std::uint64_t kTraceBlock = 16;
bool tracedOp(std::uint64_t op) { return (op / kTraceBlock) % 2 == 1; }
/// program_steps covers each client's first requests (plan workloads; each
/// distinct instance once, so the hottest specs do not dominate) or planned
/// mutations (session_repl), so it is a pure function of the seed.
std::uint64_t prefixLength(const std::string& workload) {
  if (workload == "plan_ea") return 72;  // 2 grid blocks, 576 instances
  if (workload == "plan_small_mix") return 3072;  // 40 blocks of unique specs
  return 128;
}

constexpr std::int64_t kRpcTimeoutMs = 60000;

std::uint64_t clientStream(int client) {
  return 0x5eed0000u + static_cast<std::uint64_t>(client);
}

}  // namespace

bool isPlanWorkload(const std::string& workload) {
  return workload == "plan_ea" || workload == "plan_small_mix";
}

bool isKnownWorkload(const std::string& workload) {
  return isPlanWorkload(workload) || workload == "session_repl";
}

// --- Generators -------------------------------------------------------------

namespace {

/// The request shapes of a workload (|S|, |I|, |Td|, planner); seeds are
/// drawn per request.  plan_ea spreads |Td| over [8, 40] in six strata.
std::vector<service::BatchSpec> shapeGrid(const std::string& workload) {
  std::vector<service::BatchSpec> grid;
  const bool ea = workload == "plan_ea";
  for (int states : ea ? std::vector<int>{16, 32, 64}
                       : std::vector<int>{6, 8, 10, 12})
    for (int inputs : ea ? std::vector<int>{2, 4} : std::vector<int>{2, 3})
      for (int deltas : ea ? std::vector<int>{10, 16, 21, 27, 32, 38}
                           : std::vector<int>{2, 4, 6})
        for (const char* planner :
             ea ? std::vector<const char*>{"ea"}
                : std::vector<const char*>{"jsr", "greedy"}) {
          service::BatchSpec spec;
          spec.stateCount = states;
          spec.inputCount = inputs;
          spec.outputCount = 2;
          spec.deltaCount = std::min(deltas, states * inputs);
          spec.instanceCount = ea ? kEaInstances : kSmallInstances;
          spec.planner = planner;
          grid.push_back(spec);
        }
  return grid;
}

}  // namespace

PlanGenerator::PlanGenerator(std::string workload, std::uint64_t seed,
                             int client)
    : workload_(std::move(workload)),
      rng_(rfsm::Rng(seed).substream(clientStream(client))) {
  if (workload_ != "plan_small_mix") return;
  // The hot set is shared by every client and has the same shapes under
  // every seed (a fixed stride through the grid); the seed picks only the
  // machines.  Zipf(1) weights make a few specs very hot.
  const std::vector<service::BatchSpec> grid = shapeGrid(workload_);
  rfsm::Rng hotRng = rfsm::Rng(seed).substream(0x407);
  double total = 0.0;
  for (std::size_t h = 0; h < kHotSetSize; ++h) {
    hot_.push_back(grid[(h * 7) % grid.size()]);
    hot_.back().seed = hotRng();
    total += 1.0 / static_cast<double>(h + 1);
    hotCumulative_.push_back(total);
  }
}

service::BatchSpec PlanGenerator::nextStratified() {
  if (block_.empty()) {
    block_ = shapeGrid(workload_);
    rng_.shuffle(block_);
  }
  service::BatchSpec spec = block_.back();
  block_.pop_back();
  spec.seed = rng_();
  return spec;
}

service::PlanRequest PlanGenerator::next() {
  service::PlanRequest request;
  request.requestId = index_;
  if (workload_ == "plan_small_mix" && index_ % 8 < kHotPerEight) {
    const double u = rng_.uniform() * hotCumulative_.back();
    const auto it =
        std::upper_bound(hotCumulative_.begin(), hotCumulative_.end(), u);
    request.spec = hot_[std::min<std::size_t>(it - hotCumulative_.begin(),
                                              kHotSetSize - 1)];
  } else {
    request.spec = nextStratified();
  }
  ++index_;
  return request;
}

std::vector<service::PlanRequest> PlanGenerator::warmup() const {
  std::vector<service::PlanRequest> requests;
  if (workload_ == "plan_small_mix") {
    // Twice each, so every hot entry is past the cache's probation segment.
    for (int round = 0; round < 2; ++round)
      for (const service::BatchSpec& spec : hot_) {
        service::PlanRequest request;
        request.spec = spec;
        requests.push_back(request);
      }
    return requests;
  }
  service::PlanRequest request;
  request.spec.stateCount = 8;
  request.spec.inputCount = 2;
  request.spec.deltaCount = 4;
  request.spec.instanceCount = kSmallInstances;
  request.spec.planner = "ea";
  // A short EA run takes the same path through the daemon; at the default
  // size the warm-up's own CPU time (40-70 ms) would be most of setup_s.
  request.spec.eaPopulation = 8;
  request.spec.eaGenerations = 4;
  request.spec.seed = 0x3a3a;
  requests.push_back(request);
  return requests;
}

SessionGenerator::SessionGenerator(std::uint64_t seed, int client,
                                   int generation)
    : rng_(rfsm::Rng(seed).substream(clientStream(client)).substream(
          static_cast<std::uint64_t>(generation + 1))) {
  config_.tenant = "tenant" + std::to_string(client);
  config_.name =
      "session" + std::to_string(client) + "-" + std::to_string(generation);
  config_.planner = "jsr";
  config_.stateCount = 16;
  config_.inputCount = 2;
  config_.outputCount = 2;
  config_.seed = rng_();
}

service::MutationRecord SessionGenerator::mutation(bool defer) {
  service::MutationRecord record;
  record.seq = ++seq_;
  record.deltaCount = 4;
  record.newStateCount = 0;
  record.mutationSeed = rng_();
  record.defer = defer;
  return record;
}

SessionOp SessionGenerator::next() {
  SessionOp op;
  ++ops_;
  if (ops_ % kReplayEvery == 0 && seq_ > 0) {
    op.replay = true;
    op.toSeq = seq_;
    op.fromSeq = seq_ > kReplayWindow ? seq_ - kReplayWindow + 1 : 1;
    return op;
  }
  op.record = mutation((seq_ + 1) % kDeferEvery == 0);
  return op;
}

service::MutationRecord SessionGenerator::flush() { return mutation(false); }

service::SessionOpenRequest openRequest(const service::SessionConfig& config) {
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
  request.resume = false;
  return request;
}

service::SessionMutateRequest mutateRequest(
    const service::SessionConfig& config,
    const service::MutationRecord& record) {
  service::SessionMutateRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.seq = record.seq;
  request.deltaCount = record.deltaCount;
  request.newStateCount = record.newStateCount;
  request.mutationSeed = record.mutationSeed;
  request.defer = record.defer;
  return request;
}

// --- Output checks ------------------------------------------------------------

int programSteps(const std::string& text) {
  const auto at = text.find("\nsteps ");
  if (at == std::string::npos) return -1;
  return std::atoi(text.c_str() + at + 7);
}

namespace {

std::string checkProgram(const service::BatchSpec& spec, std::uint64_t index,
                         const std::string& text) {
  try {
    const rfsm::MigrationContext context = service::makeInstance(spec, index);
    const rfsm::ReconfigurationProgram program =
        rfsm::programFromText(context, text);
    const rfsm::ValidationResult verdict =
        rfsm::validateProgram(context, program);
    if (!verdict.valid)
      return "instance " + std::to_string(index) + " invalid: " + verdict.reason;
    const int td = context.deltaCount();
    if (program.length() < td || program.length() > 3 * (td + 1))
      return "instance " + std::to_string(index) + ": |Z| = " +
             std::to_string(program.length()) + " outside [" +
             std::to_string(td) + ", " + std::to_string(3 * (td + 1)) + "]";
  } catch (const std::exception& error) {
    return "instance " + std::to_string(index) + ": " + error.what();
  }
  return "";
}

}  // namespace

std::string checkPrograms(const service::BatchSpec& spec, std::uint64_t lo,
                          const std::vector<std::string>& programs,
                          std::vector<double>* steps) {
  for (std::size_t k = 0; k < programs.size(); ++k) {
    if (steps != nullptr) steps->push_back(programSteps(programs[k]));
    std::string error = checkProgram(spec, lo + k, programs[k]);
    if (!error.empty()) return error;
  }
  return "";
}

// --- Rigs: one deployment of a workload's daemons and clients ---------------

namespace {

class Rig {
 public:
  virtual ~Rig() = default;
  /// Closed-loop clients until `deadline`.  An operation's latency goes to
  /// report.tracedLatencyMs when spans were recording as it started, else
  /// to report.latencyMs.
  virtual void measure(Clock::time_point deadline, Spans& spans,
                       Report& report) = 0;
  /// Fetches what the checks need from the daemons (before teardown).
  virtual void collect(Report& report) = 0;
  /// Offline output checks; counts failures into `report`.
  virtual void check(Report& report) = 0;
  /// Instances planned or mutations applied so far.
  virtual std::uint64_t items() const = 0;

  /// Samples the daemons' peak RSS.  The loops call it once client 0 has
  /// completed rssAfter_ operations (runWorkload, at the end if it never
  /// did), so the figure does not grow with throughput.
  void sampleRss(Report& report) {
    long kb = 0;
    for (const auto& daemon : daemons_) kb += daemon->peakRssKb();
    report.rssPeakMb = static_cast<double>(kb) / 1024.0;
  }
  void teardown() {
    for (auto& daemon : daemons_) daemon->stop();
  }

 protected:
  explicit Rig(std::uint64_t rssAfter) : rssAfter_(rssAfter) {}

  const std::uint64_t rssAfter_;

  Daemon& spawn(const Args& args, Role role, const std::string& socket,
                const std::string& stateDir = "",
                const std::string& replica = "") {
    daemons_.push_back(std::make_unique<Daemon>(
        args.rfsmd, daemonArgs(role, socket, stateDir, replica, args.rfsmd),
        socket));
    return *daemons_.back();
  }

  /// Runs `body(client, untraced, traced)` on `clients` threads, each with
  /// its own latency buffers, and appends the buffers to the report.  An
  /// exception ends only its own client, as one failed operation.
  void onClients(int clients, Report& report,
                 const std::function<void(int, std::vector<double>&,
                                          std::vector<double>&)>& body) {
    std::vector<std::vector<double>> untraced(clients), traced(clients);
    const auto guarded = [&](int c) {
      try {
        body(c, untraced[c], traced[c]);
      } catch (const std::exception& error) {
        report.fail("client " + std::to_string(c) + ": " + error.what());
      }
    };
    std::vector<std::thread> threads;
    for (int c = 1; c < clients; ++c) threads.emplace_back(guarded, c);
    guarded(0);
    for (auto& thread : threads) thread.join();
    for (int c = 0; c < clients; ++c) {
      report.latencyMs.insert(report.latencyMs.end(), untraced[c].begin(),
                              untraced[c].end());
      report.tracedLatencyMs.insert(report.tracedLatencyMs.end(),
                                    traced[c].begin(), traced[c].end());
    }
  }

 private:
  std::vector<std::unique_ptr<Daemon>> daemons_;
};

struct Exchange {
  service::PlanRequest request;
  service::PlanResponse response;
  bool ok = false;
};

class PlanRig : public Rig {
 public:
  PlanRig(const Args& args, int attempt)
      : Rig(args.workload == "plan_ea" ? 48 : 4096),
        workload_(args.workload),
        seed_(args.seed) {
    Daemon& daemon = spawn(args, Role::kPlanCached,
                           "plan" + std::to_string(attempt) + ".sock");
    daemon.waitReady();
    endpoint_ = daemon.endpoint();
    clients_ = workload_ == "plan_ea" ? 1 : 2;
    for (int c = 0; c < clients_; ++c) {
      generators_.emplace_back(workload_, seed_, c);
      logs_.emplace_back();
    }
    for (const service::PlanRequest& request : generators_[0].warmup()) {
      const auto reply = service::exchangeEndpoint(
          endpoint_, service::encodePlanRequest(request), kRpcTimeoutMs);
      if (!reply ||
          service::decodePlanResponse(*reply).status !=
              rfsm::WorkResult::Status::kOk)
        throw std::runtime_error("warm-up request failed");
    }
  }

  void measure(Clock::time_point deadline, Spans& spans,
               Report& report) override {
    onClients(clients_, report, [&](int c, std::vector<double>& untraced,
                                           std::vector<double>& traced) {
      std::uint64_t ops = 0;
      while (Clock::now() < deadline) {
        Exchange exchange;
        exchange.request = generators_[c].next();
        Spans::setThreadRecording(tracedOp(ops++));
        const bool tracing = spans.recording();
        const auto start = Clock::now();
        try {
          Spans::Scope op(spans, "op.plan");
          std::string payload;
          {
            Spans::Scope encode(spans, "protocol.encode");
            payload = service::encodePlanRequest(exchange.request);
          }
          std::optional<std::string> reply;
          {
            Spans::Scope rpc(spans, "rpc.plan");
            reply = service::exchangeEndpoint(endpoint_, payload,
                                              kRpcTimeoutMs);
          }
          if (!reply) throw std::runtime_error("no reply");
          Spans::Scope decode(spans, "protocol.decode");
          exchange.response = service::decodePlanResponse(*reply);
          exchange.ok = true;
        } catch (const std::exception& error) {
          report.fail("plan request " +
                      std::to_string(exchange.request.requestId) + ": " +
                      error.what());
        }
        (tracing ? traced : untraced)
            .push_back(msBetween(start, Clock::now()));
        logs_[c].push_back(std::move(exchange));
        if (c == 0 && logs_[0].size() == rssAfter_) sampleRss(report);
      }
    });
  }

  void collect(Report&) override {}

  void check(Report& report) override {
    // Instances repeat (the hot set): check each (spec, index) once and
    // require every later copy to be byte-identical to it.
    std::unordered_map<std::string, std::string> seen;
    const std::uint64_t prefix = prefixLength(workload_);
    double instances = 0, hits = 0, retries = 0, crashes = 0;
    for (const auto& log : logs_) {
      for (const Exchange& exchange : log) {
        ++report.attempted;
        if (!exchange.ok) continue;  // already counted as failed
        const service::PlanRequest& request = exchange.request;
        const service::PlanResponse& response = exchange.response;
        const std::string id = "plan request " +
                               std::to_string(request.requestId) + " (" +
                               request.spec.planner + ")";
        if (response.status != rfsm::WorkResult::Status::kOk ||
            response.programs.size() != request.spec.instanceCount) {
          report.fail(id + ": status " +
                      std::string(rfsm::toString(response.status)) + " " +
                      response.error);
          continue;
        }
        instances += static_cast<double>(response.programs.size());
        hits += static_cast<double>(response.cacheHits);
        retries += static_cast<double>(response.retries);
        crashes += static_cast<double>(response.crashes);
        std::string error;
        for (std::size_t k = 0; k < response.programs.size() && error.empty();
             ++k) {
          const std::string& text = response.programs[k];
          const std::string key = service::planCacheKey(request.spec, k);
          const auto [it, fresh] = seen.emplace(key, text);
          if (!fresh) {
            if (it->second != text) error = "instance " + std::to_string(k) +
                                            " differs from an earlier answer";
            continue;
          }
          if (request.requestId < prefix)
            report.programSteps.push_back(programSteps(text));
          error = checkProgram(request.spec, k, text);
        }
        if (error.empty() && request.requestId % kSampleEvery == 0 &&
            service::planRange(request.spec, 0, request.spec.instanceCount,
                               nullptr, 1, service::PlanCacheMode::kBypass) !=
                response.programs)
          error = "differs from in-process planRange";
        if (!error.empty()) report.fail(id + ": " + error);
      }
    }
    report.counts["instances"] += instances;
    report.counts["cache_hits"] += hits;
    report.counts["retries"] += retries;
    report.counts["crashes"] += crashes;
  }

  std::uint64_t items() const override {
    std::uint64_t n = 0;
    for (const auto& log : logs_)
      for (const Exchange& exchange : log)
        n += exchange.ok ? exchange.response.programs.size() : 0;
    return n;
  }

 private:
  std::string workload_;
  std::uint64_t seed_;
  int clients_ = 1;
  rfsm::ipc::Endpoint endpoint_;
  std::vector<PlanGenerator> generators_;
  std::vector<std::vector<Exchange>> logs_;
};

/// One session from open to close (or to the end of the run).
struct SessionLife {
  service::SessionConfig config;
  std::vector<service::MutationRecord> records;
  std::vector<service::SessionMutateResponse> responses;
  /// Final replay of the entries the client has not acknowledged.
  std::vector<service::SessionReplayResponse::Entry> tail;
};

class SessionRig : public Rig {
 public:
  SessionRig(const Args& args, int attempt) : Rig(2048), seed_(args.seed) {
    const std::string tag = std::to_string(attempt);
    Daemon& standby = spawn(args, Role::kStandby, "standby" + tag + ".sock",
                            "standby" + tag);
    Daemon& primary =
        spawn(args, Role::kPrimary, "primary" + tag + ".sock", "primary" + tag,
              "standby" + tag + ".sock");
    standby.waitReady();
    primary.waitReady();
    service::SessionStream::Options options;
    options.endpoint = primary.endpoint();
    for (int c = 0; c < kClients; ++c) {
      streams_.push_back(std::make_unique<service::SessionStream>(options));
      warmup(*streams_[c], c);
      generators_.emplace_back(seed_, c, 0);
      lives_.emplace_back();
      open(c);
    }
  }

  void measure(Clock::time_point deadline, Spans& spans,
               Report& report) override {
    std::vector<std::uint64_t> replays(kClients, 0);
    onClients(kClients, report, [&](int c, std::vector<double>& untraced,
                                           std::vector<double>& traced) {
      std::uint64_t done = 0, ops = 0;
      while (Clock::now() < deadline) {
        SessionLife& life = lives_[c].back();
        if (life.records.size() >= kSessionLength &&
            !life.records.back().defer) {
          if (!rotate(c, report)) break;
          continue;
        }
        const SessionOp op = generators_[c].next();
        Spans::setThreadRecording(tracedOp(ops++));
        const bool tracing = spans.recording();
        const auto start = Clock::now();
        try {
          if (op.replay) {
            ++replays[c];
            Spans::Scope scope(spans, "op.replay");
            Spans::Scope rpc(spans, "rpc.replay");
            if (replay(c, op.fromSeq, op.toSeq).status !=
                service::SessionStatus::kOk)
              throw std::runtime_error("replay refused");
            readMs_[c].push_back(msBetween(start, Clock::now()));
            continue;
          }
          life.records.push_back(op.record);
          Spans::Scope scope(spans, "op.mutate");
          Spans::Scope rpc(spans, "rpc.mutate");
          life.responses.push_back(mutate(c, op.record));
        } catch (const std::exception& error) {
          report.fail(life.config.name + ": " + error.what());
          if (!op.replay && life.responses.size() < life.records.size())
            life.responses.emplace_back();  // keeps records aligned
          continue;
        }
        (tracing ? traced : untraced)
            .push_back(msBetween(start, Clock::now()));
        if (c == 0 && ++done == rssAfter_) sampleRss(report);
      }
    });
    for (int c = 0; c < kClients; ++c) {
      report.attempted += replays[c];
      report.readMs.insert(report.readMs.end(), readMs_[c].begin(),
                           readMs_[c].end());
      readMs_[c].clear();
    }
  }

  void collect(Report& report) override {
    for (int c = 0; c < kClients; ++c) {
      SessionLife& life = lives_[c].back();
      try {
        if (!life.records.empty() && life.records.back().defer) {
          life.records.push_back(generators_[c].flush());
          life.responses.push_back(mutate(c, life.records.back()));
        }
        finish(c);
      } catch (const std::exception& error) {
        report.fail(life.config.name + " collect: " + error.what());
      }
    }
  }

  void check(Report& report) override {
    const std::uint64_t prefix = prefixLength("session_repl");
    for (const auto& lives : lives_) {
      std::uint64_t counted = 0;
      for (const SessionLife& life : lives) {
        service::SessionEngine engine(life.config);
        std::vector<service::SessionReplayResponse::Entry> expected;
        for (std::size_t k = 0; k < life.records.size(); ++k) {
          const service::MutationRecord& record = life.records[k];
          const service::SessionMutateResponse& response = life.responses[k];
          const service::PlanOutcome outcome = engine.apply(record);
          ++report.attempted;
          const std::string id =
              life.config.name + " seq " + std::to_string(record.seq);
          if (response.seq != record.seq) continue;  // failed in flight
          if (outcome.failed) {
            report.fail(id + ": reference failed: " + outcome.error);
            continue;
          }
          const auto want = record.defer ? service::SessionStatus::kAccepted
                                         : service::SessionStatus::kOk;
          if (response.status != want) {
            report.fail(id + ": status " +
                        std::string(service::toString(response.status)) +
                        " " + response.error);
            continue;
          }
          if (!outcome.planned) continue;
          if (!life.tail.empty() && record.seq >= life.tail.front().seq)
            expected.push_back({record.seq, outcome.program});
          const int steps = programSteps(response.program);
          if (counted++ < prefix) report.programSteps.push_back(steps);
          if (response.program != outcome.program)
            report.fail(id + ": program differs from local SessionEngine");
          else if (steps < outcome.deltasPlanned ||
                   steps > 3 * (outcome.deltasPlanned + 1))
            report.fail(id + ": |Z| outside the paper's bounds");
        }
        const bool same =
            !life.tail.empty() && life.tail.size() == expected.size() &&
            std::equal(expected.begin(), expected.end(), life.tail.begin(),
                       [](const auto& a, const auto& b) {
                         return a.seq == b.seq && a.program == b.program;
                       });
        ++report.attempted;
        if (!same)
          report.fail(life.config.name +
                      ": replayed transcript differs from local SessionEngine");
      }
    }
  }

  std::uint64_t items() const override {
    std::uint64_t n = 0;
    for (const auto& lives : lives_)
      for (const SessionLife& life : lives) n += life.records.size();
    return n;
  }

 private:
  static constexpr int kClients = 2;

  service::SessionMutateResponse mutate(int c,
                                        const service::MutationRecord& record) {
    service::SessionMutateRequest request =
        mutateRequest(lives_[c].back().config, record);
    // Acknowledge all but the replay window, as a client that consumes its
    // transcript does; the daemon then keeps (and snapshots) only the rest.
    request.ackSeq = record.seq > kUnacked ? record.seq - kUnacked : 0;
    return streams_[c]->mutate(request);
  }

  service::SessionReplayResponse replay(int c, std::uint64_t from,
                                        std::uint64_t to) {
    service::SessionReplayRequest request;
    request.tenant = lives_[c].back().config.tenant;
    request.name = lives_[c].back().config.name;
    request.fromSeq = from;
    request.toSeq = to;
    return streams_[c]->replay(request);
  }

  void open(int c) {
    lives_[c].emplace_back();
    lives_[c].back().config = generators_[c].config();
    const auto opened =
        streams_[c]->open(openRequest(lives_[c].back().config));
    if (opened.status != service::SessionStatus::kOk)
      throw std::runtime_error("session open failed: " + opened.error);
  }

  /// Reads back the unacknowledged tail for the transcript check.
  void finish(int c) {
    SessionLife& life = lives_[c].back();
    const std::uint64_t last = life.records.size();
    const auto replayed =
        replay(c, last > kUnacked ? last - kUnacked + 1 : 1, last);
    if (replayed.status != service::SessionStatus::kOk)
      throw std::runtime_error("final replay refused");
    life.tail = replayed.entries;
  }

  /// Ends a session and opens the client's next one, so per-session state
  /// (and with it snapshot size) stays bounded however long the run.
  /// Returns false, after counting the failure, when the client must stop.
  bool rotate(int c, Report& report) {
    try {
      finish(c);
      service::SessionCloseRequest close;
      close.tenant = lives_[c].back().config.tenant;
      close.name = lives_[c].back().config.name;
      if (streams_[c]->close(close).status != service::SessionStatus::kOk)
        throw std::runtime_error("close refused");
      generators_[c] =
          SessionGenerator(seed_, c, static_cast<int>(lives_[c].size()));
      open(c);
      return true;
    } catch (const std::exception& error) {
      report.fail(lives_[c].back().config.name + " rotate: " + error.what());
      return false;
    }
  }

  /// A throwaway session per client: open, mutate (one deferred run),
  /// replay, close — every path the measured loop takes, untimed.
  static void warmup(service::SessionStream& stream, int client) {
    SessionGenerator generator(0x77a3, client, -1);
    const auto& config = generator.config();
    if (stream.open(openRequest(config)).status != service::SessionStatus::kOk)
      throw std::runtime_error("warm-up open failed");
    for (std::uint64_t k = 0; k < kDeferEvery; ++k) {
      const service::MutationRecord record = generator.next().record;
      if (stream.mutate(mutateRequest(config, record)).seq != record.seq)
        throw std::runtime_error("warm-up mutate failed");
    }
    service::SessionReplayRequest replay;
    replay.tenant = config.tenant;
    replay.name = config.name;
    replay.toSeq = kDeferEvery;
    stream.replay(replay);
    service::SessionCloseRequest close;
    close.tenant = config.tenant;
    close.name = config.name;
    stream.close(close);
  }

  std::uint64_t seed_;
  std::vector<std::unique_ptr<service::SessionStream>> streams_;
  std::vector<SessionGenerator> generators_;
  std::vector<std::vector<SessionLife>> lives_;
  std::vector<double> readMs_[kClients];
};

std::unique_ptr<Rig> deploy(const Args& args, int attempt) {
  if (isPlanWorkload(args.workload))
    return std::make_unique<PlanRig>(args, attempt);
  return std::make_unique<SessionRig>(args, attempt);
}

}  // namespace

void runWorkload(const Args& args, Report& report, Spans& spans) {
  const int setups = args.trace ? 1 : kSetups;
  std::unique_ptr<Rig> rig;
  for (int attempt = 0; attempt < setups; ++attempt) {
    if (rig) rig->teardown();
    const auto start = Clock::now();
    rig = deploy(args, attempt);
    report.setupS.push_back(msBetween(start, Clock::now()) / 1000.0);
  }

  // Untraced runs measure for the whole budget.  Traced runs give two
  // thirds to the workload, each client recording spans for alternate
  // blocks of operations (the latency difference between the two halves is
  // the tracing overhead), and the rest to the ladder.
  const double measured = args.trace ? args.seconds * 2.0 / 3.0 : args.seconds;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(measured));
  spans.setEnabled(args.trace);
  rig->measure(deadline, spans, report);
  spans.setEnabled(false);
  Spans::setThreadRecording(true);  // client 0 ran on this thread
  report.windowS = msBetween(start, Clock::now()) / 1000.0;
  report.items = rig->items();
  if (report.rssPeakMb == 0.0) rig->sampleRss(report);
  rig->collect(report);
  rig->teardown();
  rig->check(report);
  if (args.trace) runLadder(args, report, spans);
}

}  // namespace perfbench
