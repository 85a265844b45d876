// Shared driver types: command-line arguments and the raw report run.py
// turns into metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rfsmd;     ///< absolute path of the rfsmd binary
  std::string workDir;   ///< parent of the run's mkdtemp directory
  std::string out;       ///< raw report (JSON)
  std::string traceOut;  ///< Chrome-trace dump (trace runs)
};

/// Everything one run measured, before any statistics.  Latencies are raw
/// samples in ms; run.py computes medians and tails (perfbench/stats.py).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<double> setupS;         ///< one entry per setup performed
  std::vector<double> latencyMs;      ///< the workload's primary operation
  std::vector<double> tracedLatencyMs;  ///< same, with spans recording
  std::vector<double> readMs;         ///< replay reads (session_repl)
  double windowS = 0.0;               ///< measured wall time
  std::uint64_t items = 0;            ///< instances or mutations completed
  std::vector<double> programSteps;   ///< |Z| over the seed-fixed prefix
  double rssPeakMb = 0.0;
  /// Counts and sizes measured by the traced run (timings live in the
  /// trace dump instead).
  std::map<std::string, double> counts;

  /// Records one failed operation with its reason.  Thread-safe.
  void fail(const std::string& why);
  void writeJson(const std::string& path) const;

 private:
  std::mutex mutex_;
};

}  // namespace perfbench
