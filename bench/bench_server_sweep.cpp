// A13 — Planner service sweep: the supervised worker pool under induced
// process faults, proving the recovery contract end to end: for every
// fault scenario the service answers OK and its programs are *bit-identical*
// to the unsharded in-process planAll — a killed, aborted, or hung worker
// costs retries and latency, never correctness.  The artifact prints one
// row per (scenario, workers) cell with status, retry/crash counts, and
// the bit-identity verdict; the binary exits 1 when any cell breaks the
// contract.
//
// Worker subprocesses are spawned from the rfsmd binary next to this one
// (compile-time RFSM_RFSMD_BUILD_PATH, overridable with RFSM_RFSMD).
// `--smoke` shrinks the grid for the CI regression gate.
#include "common.hpp"
#include "rfsmd_harness.hpp"

#include <vector>

#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/fault.hpp"
#include "util/table.hpp"

namespace rfsm::bench {
namespace {

service::BatchSpec sweepSpec(bool smoke) {
  service::BatchSpec spec;
  spec.stateCount = 10;
  spec.inputCount = 3;
  spec.outputCount = 2;
  spec.deltaCount = 8;
  spec.newStateCount = 1;
  spec.instanceCount = smoke ? 12 : 24;
  spec.seed = 0xA13;
  spec.planner = "greedy";
  return spec;
}

service::ServerOptions cellOptions(const std::string& scenario, int workers,
                                   std::uint64_t shardSize) {
  service::ServerOptions options;
  options.workerBinary = rfsmdPath();
  options.shardSize = shardSize;
  options.pool.workers = workers;
  options.pool.maxAttempts = 4;
  options.pool.backoffBase = std::chrono::milliseconds(5);
  options.pool.backoffCap = std::chrono::milliseconds(50);
  options.pool.restartLimit = 16;
  // The hedge that makes hang-worker recoverable: a silent worker is
  // killed after 400 ms of silence and the shard retried.
  options.pool.attemptTimeout = std::chrono::milliseconds(400);
  options.scenario = *fault::serviceScenarioByName(scenario);
  return options;
}

struct CellResult {
  std::string status;
  double wallMs = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t crashes = 0;
  bool bitIdentical = false;
};

CellResult runCell(const std::string& scenario, int workers,
                   const service::BatchSpec& spec,
                   const std::vector<std::string>& reference) {
  service::Server server(cellOptions(scenario, workers, /*shardSize=*/4));
  service::PlanRequest request;
  request.spec = spec;
  request.deadlineMs = 60000;
  request.requestId = 0xA13;
  const auto start = std::chrono::steady_clock::now();
  const service::PlanResponse response = server.handlePlan(request);
  CellResult cell;
  cell.wallMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  cell.status = toString(response.status);
  cell.retries = response.retries;
  cell.crashes = response.crashes;
  cell.bitIdentical = response.status == WorkResult::Status::kOk &&
                      response.programs == reference;
  return cell;
}

/// Returns true when every cell answered OK with bit-identical programs.
bool printArtifact(bool smoke) {
  banner("A13", "Planner service sweep - worker faults vs bit-identity");
  const service::BatchSpec spec = sweepSpec(smoke);
  const std::vector<std::string> reference =
      service::planRange(spec, 0, spec.instanceCount);
  const std::vector<std::string> scenarios = {
      "none", "kill-first-shard", "abort-mid-shard", "hang-worker"};
  const std::vector<int> workerCounts = smoke ? std::vector<int>{2}
                                              : std::vector<int>{2, 4};

  bool contractHolds = true;
  Table table({"scenario", "workers", "status", "retries", "crashes",
               "bit-identical", "wall ms"});
  for (const std::string& scenario : scenarios) {
    for (const int workers : workerCounts) {
      const CellResult cell = runCell(scenario, workers, spec, reference);
      table.addRow({scenario, std::to_string(workers), cell.status,
                    std::to_string(cell.retries),
                    std::to_string(cell.crashes),
                    cell.bitIdentical ? "yes" : "NO",
                    std::to_string(static_cast<long>(cell.wallMs))});
      if (!cell.bitIdentical) contractHolds = false;
    }
  }
  std::cout << "\nsharded planning under induced worker faults ("
            << (smoke ? "smoke" : "full") << " grid, " << spec.instanceCount
            << " instances, shard size 4):\n"
            << table.toMarkdown();
  std::cout << "\nbit-identical-recovery contract: "
            << (contractHolds
                    ? "HOLDS (every scenario matches in-process planAll)"
                    : "VIOLATED - see bit-identical column")
            << "\n";
  printTelemetry(artifactJobs(), /*countersOnly=*/true);
  return contractHolds;
}

void serverPlanBench(benchmark::State& state) {
  const service::BatchSpec spec = sweepSpec(/*smoke=*/true);
  service::Server server(
      cellOptions("none", static_cast<int>(state.range(0)), 4));
  service::PlanRequest request;
  request.spec = spec;
  request.deadlineMs = 60000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handlePlan(request));
  }
  state.SetLabel("sharded via worker pool");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.instanceCount));
}
BENCHMARK(serverPlanBench)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

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
