// perfbench_driver: runs one benchmark workload against real rfsmd daemons
// and writes the raw report (and, traced, the span dump) for run.py.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --rfsmd PATH --work-dir DIR --out REPORT.json
//                    [--trace-out TRACE.json]
//
// Exit status: 0 when the run completed (output-check failures are in the
// report), 1 when it could not complete, 2 on bad arguments.
#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "daemons.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

void writeArray(std::ostream& out, const std::vector<double>& values) {
  out << '[';
  for (std::size_t k = 0; k < values.size(); ++k)
    out << (k ? "," : "") << values[k];
  out << ']';
}

std::string quoted(const std::string& text) {
  std::string q = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') q += '\\';
    q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return q + "\"";
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload plan_ea|plan_small_mix|"
               "session_repl --seed N --seconds S --trace 0|1 --rfsmd PATH "
               "--work-dir DIR --out FILE [--trace-out FILE]\n";
  return 2;
}

}  // namespace

void Report::fail(const std::string& why) {
  std::lock_guard lock(mutex_);
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Report::writeJson(const std::string& path) const {
  std::ofstream out(path);
  out.precision(12);
  out << "{\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"failures\":[";
  for (std::size_t k = 0; k < failures.size(); ++k)
    out << (k ? "," : "") << quoted(failures[k]);
  out << "],\"setup_s\":";
  writeArray(out, setupS);
  out << ",\"latency_ms\":";
  writeArray(out, latencyMs);
  out << ",\"traced_latency_ms\":";
  writeArray(out, tracedLatencyMs);
  out << ",\"read_ms\":";
  writeArray(out, readMs);
  out << ",\"window_s\":" << windowS << ",\"items\":" << items
      << ",\"program_steps\":";
  writeArray(out, programSteps);
  out << ",\"rss_peak_mb\":" << rssPeakMb << ",\"counts\":{";
  bool first = true;
  for (const auto& [name, value] : counts) {
    out << (first ? "" : ",") << quoted(name) << ':' << value;
    first = false;
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("cannot write report " + path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    for (int k = 1; k + 1 < argc; k += 2) {
      const std::string flag = argv[k], value = argv[k + 1];
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--rfsmd") args.rfsmd = value;
      else if (flag == "--work-dir") args.workDir = value;
      else if (flag == "--out") args.out = value;
      else if (flag == "--trace-out") args.traceOut = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!isKnownWorkload(args.workload) || args.rfsmd.empty() ||
      args.workDir.empty() || args.out.empty() || args.seconds <= 0 ||
      (args.trace && args.traceOut.empty()))
    return usage();

  prepareProcess();
  std::string dir = args.workDir + "/run-XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    std::cerr << "perfbench_driver: mkdtemp in " << args.workDir << " failed\n";
    return 1;
  }
  const std::filesystem::path home = std::filesystem::current_path();
  // Short relative socket names: Unix socket paths are capped at 108 bytes.
  std::filesystem::current_path(dir);

  Report report;
  Spans spans;
  int code = 0;
  try {
    runWorkload(args, report, spans);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << error.what() << "\n";
    code = 1;
  }
  reapAll();
  std::filesystem::current_path(home);
  std::filesystem::remove_all(dir);
  if (code != 0) return code;
  try {
    if (args.trace) spans.write(args.traceOut);
    report.writeJson(args.out);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
