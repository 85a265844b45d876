// A14 — Planner fabric sweep: the cross-host fabric under an endpoint
// fault grid (dead, flapping, slow, lying, all-dead), proving the
// robustness contract end to end: every cell answers OK with programs
// *bit-identical* to the unsharded in-process planAll, and every induced
// fault is *detected* (rerouted/hedged/quorum-mismatch counters, breaker
// trips, or the degradation flag) — never silently served.  The artifact
// prints one row per scenario with status, degradation, bit-identity, and
// detection verdicts; the binary exits 1 when any cell breaks either half
// of the contract.
//
// Honest and faulty endpoints are played by a mix of real service::Server
// instances (spawning rfsmd workers — compile-time RFSM_RFSMD_BUILD_PATH,
// overridable with RFSM_RFSMD) and in-bench fake endpoints that speak the
// real wire protocol but tamper, stall, or flap on purpose.  `--smoke`
// shrinks the batch for the CI regression gate.
#include "common.hpp"
#include "rfsmd_harness.hpp"

#include <unistd.h>

#include <memory>
#include <thread>
#include <vector>

#include "service/fabric.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/breaker.hpp"
#include "util/ipc.hpp"
#include "util/table.hpp"

namespace rfsm::bench {
namespace {

using namespace std::chrono_literals;

service::BatchSpec sweepSpec(bool smoke) {
  service::BatchSpec spec;
  spec.stateCount = 10;
  spec.inputCount = 3;
  spec.outputCount = 2;
  spec.deltaCount = 8;
  spec.newStateCount = 1;
  spec.instanceCount = smoke ? 12 : 24;
  spec.seed = 0xA14;
  spec.planner = "greedy";
  return spec;
}

/// An in-bench endpoint speaking the real plan protocol with scripted
/// misbehaviour.  Honest replies are planRange's bytes — bit-identical to
/// any correct party — so any observable difference is the fault model.
class FakeEndpoint {
 public:
  enum class Behavior {
    kHonest,  ///< correct bytes
    kTamper,  ///< appends junk to every program (a lying replica)
    kSlow,    ///< answers correctly after `delay`
    kFlaky,   ///< hangs up without answering every other connection
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
        // Client went away (a cancelled hedge loser): next connection.
      }
    }
  }

  void handle(int fd) {
    std::string payload;
    CancelToken read(2000ms);
    if (ipc::readFrame(fd, payload, &read) != ipc::ReadStatus::kOk) return;
    if (behavior_ == Behavior::kFlaky && (++connections_ % 2) != 0)
      return;  // drop the connection without a reply
    const auto request = service::decodePlanRequest(payload);
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    service::PlanResponse response;
    response.status = WorkResult::Status::kOk;
    // kBypass: the fake plays a *remote* process — it must not share (or
    // serve back) this process's plan cache, or a poisoned entry could
    // vouch for itself in cache scenarios.
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
  std::uint64_t connections_ = 0;
  std::thread thread_;
};

service::FabricOptions fastFabric(std::vector<ipc::Endpoint> endpoints) {
  service::FabricOptions options;
  options.endpoints = std::move(endpoints);
  options.backoffBase = 1ms;
  options.backoffCap = 10ms;
  return options;
}

struct CellResult {
  std::string status;
  bool degraded = false;
  bool bitIdentical = false;
  bool faultDetected = false;
  double wallMs = 0.0;
};

/// Reads a fabric counter's process-wide value.
std::uint64_t counterValue(const char* name) {
  return metrics::counter(name).value();
}

CellResult runFabric(service::FabricOptions options,
                     const service::BatchSpec& spec,
                     const std::vector<std::string>& reference,
                     const std::vector<const char*>& detectionCounters,
                     bool degradationIsTheDetection = false) {
  std::vector<std::uint64_t> before;
  before.reserve(detectionCounters.size());
  for (const char* name : detectionCounters)
    before.push_back(counterValue(name));

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const auto start = std::chrono::steady_clock::now();
  const service::ClientResult result = fabric.plan(spec, err);
  CellResult cell;
  cell.wallMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  cell.status = toString(result.status);
  cell.degraded = result.degraded;
  cell.bitIdentical = result.status == WorkResult::Status::kOk &&
                      result.programs == reference;
  for (std::size_t k = 0; k < detectionCounters.size(); ++k)
    if (counterValue(detectionCounters[k]) > before[k])
      cell.faultDetected = true;
  if (degradationIsTheDetection) cell.faultDetected = result.degraded;
  return cell;
}

/// Returns true when every cell is bit-identical and every induced fault
/// was detected (the healthy baseline counts "no fault to detect" as pass).
bool printArtifact(bool smoke) {
  banner("A14", "Planner fabric sweep - endpoint faults vs bit-identity");
  const service::BatchSpec spec = sweepSpec(smoke);
  const std::vector<std::string> reference =
      service::planRange(spec, 0, spec.instanceCount);

  struct Row {
    std::string scenario;
    CellResult cell;
    bool detectionRequired;
  };
  std::vector<Row> rows;

  {  // all endpoints healthy: two real servers, no fault to detect
    RunningServer a(freshSocketPath("healthy-a"));
    RunningServer b(freshSocketPath("healthy-b"));
    auto options = fastFabric({ipc::parseEndpoint(a.path),
                               ipc::parseEndpoint(b.path)});
    rows.push_back({"all-healthy",
                    runFabric(std::move(options), spec, reference, {}),
                    /*detectionRequired=*/false});
  }
  {  // one endpoint dead: shards reroute, breaker quarantines it
    RunningServer live(freshSocketPath("dead-live"));
    auto options =
        fastFabric({ipc::parseEndpoint(freshSocketPath("dead-dead")),
                    ipc::parseEndpoint(live.path)});
    options.shardSize = 3;
    options.breaker.failureThreshold = 2;
    rows.push_back(
        {"one-dead",
         runFabric(std::move(options), spec, reference,
                   {metrics::kFabricRerouted, metrics::kFabricBreakerTrips}),
         /*detectionRequired=*/true});
  }
  {  // one endpoint flapping: every other connection dropped mid-request
    FakeEndpoint flaky(freshSocketPath("flap"),
                       FakeEndpoint::Behavior::kFlaky);
    RunningServer live(freshSocketPath("flap-live"));
    auto options =
        fastFabric({ipc::parseEndpoint(flaky.path()),
                    ipc::parseEndpoint(live.path)});
    options.shardSize = 3;
    rows.push_back(
        {"one-flapping",
         runFabric(std::move(options), spec, reference,
                   {metrics::kFabricRerouted, metrics::kFabricBreakerTrips}),
         /*detectionRequired=*/true});
  }
  {  // one endpoint slow: the tail shard is hedged to the honest twin
    FakeEndpoint slow(freshSocketPath("slow"),
                      FakeEndpoint::Behavior::kSlow, 600ms);
    FakeEndpoint honest(freshSocketPath("slow-twin"),
                        FakeEndpoint::Behavior::kHonest);
    auto options = fastFabric({ipc::parseEndpoint(slow.path()),
                               ipc::parseEndpoint(honest.path())});
    options.shardSize = spec.instanceCount;  // one shard, primary = slow
    options.hedgeMs = 40;
    rows.push_back({"one-slow",
                    runFabric(std::move(options), spec, reference,
                              {metrics::kFabricHedged}),
                    /*detectionRequired=*/true});
  }
  {  // one endpoint lying: quorum 2 byte-compares and serves ground truth
    FakeEndpoint liar(freshSocketPath("liar"),
                      FakeEndpoint::Behavior::kTamper);
    FakeEndpoint honest(freshSocketPath("liar-twin"),
                        FakeEndpoint::Behavior::kHonest);
    auto options = fastFabric({ipc::parseEndpoint(liar.path()),
                               ipc::parseEndpoint(honest.path())});
    options.shardSize = spec.instanceCount;  // one (sampled) shard
    options.quorum = 2;
    rows.push_back({"one-lying",
                    runFabric(std::move(options), spec, reference,
                              {metrics::kFabricQuorumMismatch}),
                    /*detectionRequired=*/true});
  }
  {  // every endpoint dead: the full ladder down to in-process planning
    auto options =
        fastFabric({ipc::parseEndpoint(freshSocketPath("down-a")),
                    ipc::parseEndpoint(freshSocketPath("down-b"))});
    options.breaker.failureThreshold = 1;
    rows.push_back({"all-dead",
                    runFabric(std::move(options), spec, reference,
                              {metrics::kFabricDegraded},
                              /*degradationIsTheDetection=*/true),
                    /*detectionRequired=*/true});
  }

  bool contractHolds = true;
  Table table({"scenario", "status", "degraded", "bit-identical",
               "fault detected", "wall ms"});
  for (const Row& row : rows) {
    const bool detectionOk =
        !row.detectionRequired || row.cell.faultDetected;
    table.addRow({row.scenario, row.cell.status,
                  row.cell.degraded ? "yes" : "no",
                  row.cell.bitIdentical ? "yes" : "NO",
                  row.detectionRequired
                      ? (row.cell.faultDetected ? "yes" : "NO")
                      : "n/a",
                  std::to_string(static_cast<long>(row.cell.wallMs))});
    if (!row.cell.bitIdentical || !detectionOk) contractHolds = false;
  }
  std::cout << "\nfabric planning under induced endpoint faults ("
            << (smoke ? "smoke" : "full") << " grid, " << spec.instanceCount
            << " instances, 2 endpoints per cell):\n"
            << table.toMarkdown();
  std::cout << "\nfault-visibility contract: "
            << (contractHolds
                    ? "HOLDS (every cell bit-identical, every fault "
                      "detected, never silently served)"
                    : "VIOLATED - see bit-identical / fault-detected "
                      "columns")
            << "\n";
  printTelemetry(artifactJobs(), /*countersOnly=*/true);
  return contractHolds;
}

void fabricPlanBench(benchmark::State& state) {
  const service::BatchSpec spec = sweepSpec(/*smoke=*/true);
  RunningServer a(freshSocketPath("bench-a"));
  RunningServer b(freshSocketPath("bench-b"));
  service::Fabric fabric(
      fastFabric({ipc::parseEndpoint(a.path),
                  ipc::parseEndpoint(b.path)}));
  std::ostringstream err;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.plan(spec, err));
  }
  state.SetLabel("2-endpoint fabric");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.instanceCount));
}
BENCHMARK(fabricPlanBench)->Unit(benchmark::kMillisecond);

void inProcessPlanBench(benchmark::State& state) {
  const service::BatchSpec spec = sweepSpec(/*smoke=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service::planRange(spec, 0, spec.instanceCount));
  }
  state.SetLabel("in-process baseline");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.instanceCount));
}
BENCHMARK(inProcessPlanBench)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rfsm::bench

int main(int argc, char** argv) {
  const std::string jsonOut = rfsm::bench::stripJsonOutFlag(argc, argv);
  bool smoke = false;
  int kept = 1;
  for (int k = 1; k < argc; ++k) {
    if (std::string(argv[k]) == "--smoke")
      smoke = true;
    else
      argv[kept++] = argv[k];
  }
  argc = kept;
  const auto artifactStart = std::chrono::steady_clock::now();
  const bool contractHolds = rfsm::bench::printArtifact(smoke);
  const double artifactMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - artifactStart)
          .count();
  if (!jsonOut.empty() &&
      !rfsm::bench::writeBenchJson(jsonOut, argv[0], artifactMs))
    return 1;
  if (!contractHolds) return 1;
  if (smoke) return 0;  // regression gate: artifact only, no timings
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
