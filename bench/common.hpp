// Shared helpers for the benchmark harness.
//
// Every bench binary first prints its reproduction artifact (the paper
// table/figure it regenerates, as markdown) and then runs google-benchmark
// timings.  Keeping the artifact on stdout makes
// `for b in build/bench/*; do $b; done | tee bench_output.txt` a complete
// reproduction log.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/migration.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace rfsm::bench {

/// Prints the experiment banner (id and title from DESIGN.md).
inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n================================================================\n"
            << id << ": " << title << "\n"
            << "================================================================\n";
}

/// Deterministic random migration instance used across benches: |S| states,
/// |I| inputs, exactly `deltas` delta transitions.
inline MigrationContext randomInstance(int states, int inputs, int deltas,
                                       std::uint64_t seed,
                                       int newStates = 0) {
  Rng rng(seed);
  RandomMachineSpec spec;
  spec.stateCount = states;
  spec.inputCount = inputs;
  spec.outputCount = 2;
  const Machine source = randomMachine(spec, rng);
  MutationSpec mutation;
  mutation.deltaCount = deltas;
  mutation.newStateCount = newStates;
  const Machine target = mutateMachine(source, mutation, rng);
  return MigrationContext(source, target);
}

/// Parallelism of the batch-planning artifacts: one job per hardware
/// thread, overridable with RFSM_JOBS (RFSM_JOBS=1 reproduces the serial
/// run; planner output is bit-identical either way).
inline int artifactJobs() {
  if (const char* env = std::getenv("RFSM_JOBS")) {
    const int jobs = std::atoi(env);
    if (jobs > 0) return jobs;
  }
  return ThreadPool::hardwareJobs();
}

/// Renders a snapshot in the sink selected by RFSM_METRICS: "md" (default)
/// for human-readable artifacts, "csv"/"json" for machine-diffable sweeps.
inline std::string renderTelemetry(const metrics::Snapshot& snap) {
  const char* env = std::getenv("RFSM_METRICS");
  const std::string format = env != nullptr ? env : "md";
  if (format == "csv") return metrics::toCsv(snap);
  if (format == "json") return metrics::toJson(snap);
  return metrics::toMarkdown(snap);
}

/// The last full snapshot captured by printTelemetry (timers and histograms
/// included even when the printed artifact dropped them), stashed for
/// writeBenchJson — printTelemetry resets the registry, so the JSON sink
/// cannot re-snapshot.
inline metrics::Snapshot& lastSnapshot() {
  static metrics::Snapshot snap;
  return snap;
}

/// Prints the telemetry gathered since the last reset and clears it, so a
/// bench's timing loops start from a clean slate.  `countersOnly` drops the
/// wall-clock timers and latency histograms — the nondeterministic parts of
/// a snapshot — for artifacts that must be bit-identical across runs and
/// job counts.
inline void printTelemetry(int jobs, bool countersOnly = false) {
  metrics::Snapshot snap = metrics::snapshot();
  lastSnapshot() = snap;
  if (countersOnly) {
    snap.timers.clear();
    snap.histograms.clear();
    // Gauges and rolling windows are point-in-time levels (queue depths,
    // sliding-window percentiles) — as nondeterministic as the timers.
    snap.gauges.clear();
    snap.rolling.clear();
  }
  // Tracer self-metrics depend on whether RFSM_TRACE is set, not on the
  // planner's work: printing them would break the bit-identical-artifact
  // contract (tracing observes, never steers).  They stay in
  // lastSnapshot() for the JSON sidecar.
  std::erase_if(snap.counters, [](const metrics::CounterSample& c) {
    return c.name == metrics::kTraceDropped;
  });
  if (!snap.empty())
    std::cout << "\nplanner telemetry (jobs = " << jobs << "):\n"
              << renderTelemetry(snap);
  metrics::resetAll();
}

/// The git revision the binary was built from (configure-time `git
/// describe`, compiled in as RFSM_GIT_REV), overridable at run time with
/// the RFSM_GIT_REV environment variable (CI stamps the exact commit).
inline std::string gitRevision() {
  if (const char* env = std::getenv("RFSM_GIT_REV")) return env;
#ifdef RFSM_GIT_REV
  return RFSM_GIT_REV;
#else
  return "unknown";
#endif
}

/// Bench name from argv[0]: basename with the "bench_" prefix stripped, so
/// build/bench/bench_fault_sweep defaults to BENCH_fault_sweep.json.
inline std::string benchName(const char* argv0) {
  std::string name(argv0);
  const std::size_t slash = name.find_last_of("/\\");
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  return name;
}

/// Strips `--json-out [FILE]` (or `--json-out=FILE`) from argv before
/// google-benchmark parses it.  Returns the output path — the explicit FILE
/// or the default BENCH_<name>.json — or "" when the flag is absent.
inline std::string stripJsonOutFlag(int& argc, char** argv) {
  std::string path;
  int kept = 1;
  for (int k = 1; k < argc; ++k) {
    const std::string arg(argv[k]);
    if (arg == "--json-out") {
      path = "BENCH_" + benchName(argv[0]) + ".json";
      if (k + 1 < argc && argv[k + 1][0] != '-') path = argv[++k];
    } else if (arg.rfind("--json-out=", 0) == 0) {
      path = arg.substr(11);
    } else {
      argv[kept++] = argv[k];
    }
  }
  argc = kept;
  return path;
}

/// Extra top-level JSON section a bench can splice into its sidecar — a
/// complete `"key": value` fragment, no trailing comma.  A16 publishes its
/// arrival-rate curves ("curves": {...}) this way so tools/bench_diff.py
/// can gate on goodput/latency trajectories, not just telemetry counters.
/// Cleared between writeBenchJson calls is unnecessary: one sidecar per
/// process.
inline std::string& sidecarExtra() {
  static std::string extra;
  return extra;
}

/// Writes the standardized BENCH_<name>.json sidecar: bench identity, git
/// revision, configuration, artifact wall time, any sidecarExtra section,
/// and the full telemetry snapshot (counters, timers, latency histograms)
/// of the artifact phase.  One file per bench per commit yields a
/// cross-commit perf trajectory.
inline bool writeBenchJson(const std::string& path, const char* argv0,
                           double wallMs) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"" << benchName(argv0) << "\",\n";
  os << "  \"git_rev\": \"" << gitRevision() << "\",\n";
  os << "  \"config\": {\"jobs\": " << artifactJobs() << "},\n";
  os << "  \"wall_ms\": " << wallMs << ",\n";
  if (!sidecarExtra().empty()) os << "  " << sidecarExtra() << ",\n";
  std::istringstream telemetry(metrics::toJson(lastSnapshot()));
  os << "  \"telemetry\": ";
  std::string line;
  bool first = true;
  while (std::getline(telemetry, line)) {
    if (!first) os << "\n  ";
    os << line;
    first = false;
  }
  os << "\n}\n";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write bench JSON to '" << path << "'\n";
    return false;
  }
  out << os.str();
  return true;
}

/// Standard bench main: print the artifact, optionally write the
/// BENCH_<name>.json sidecar (--json-out), then run timings.
#define RFSM_BENCH_MAIN(printArtifact)                                  \
  int main(int argc, char** argv) {                                     \
    const std::string jsonOut =                                         \
        ::rfsm::bench::stripJsonOutFlag(argc, argv);                    \
    const auto artifactStart = std::chrono::steady_clock::now();        \
    printArtifact();                                                    \
    const double artifactMs =                                           \
        std::chrono::duration<double, std::milli>(                      \
            std::chrono::steady_clock::now() - artifactStart)           \
            .count();                                                   \
    if (!jsonOut.empty() &&                                             \
        !::rfsm::bench::writeBenchJson(jsonOut, argv[0], artifactMs))   \
      return 1;                                                         \
    ::benchmark::Initialize(&argc, argv);                               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))           \
      return 1;                                                         \
    ::benchmark::RunSpecifiedBenchmarks();                              \
    ::benchmark::Shutdown();                                            \
    return 0;                                                           \
  }

}  // namespace rfsm::bench
