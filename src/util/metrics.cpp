#include "util/metrics.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <sstream>

#include "util/table.hpp"

namespace rfsm::metrics {
namespace {

struct Registry {
  std::mutex mutex;
  // std::map: node addresses are stable, so returned references outlive
  // later insertions.
  std::map<std::string, Counter> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Timer> timers;
  std::map<std::string, Histogram> histograms;
  std::map<std::string, RollingHistogram> rollings;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

std::atomic_ref<std::uint64_t> atomicRef(std::uint64_t& value) {
  return std::atomic_ref<std::uint64_t>(value);
}

}  // namespace

void Counter::add(std::uint64_t n) {
  atomicRef(value_).fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  return atomicRef(const_cast<std::uint64_t&>(value_))
      .load(std::memory_order_relaxed);
}

void Counter::reset() {
  atomicRef(value_).store(0, std::memory_order_relaxed);
}

namespace {

std::atomic_ref<std::int64_t> atomicRefSigned(std::int64_t& value) {
  return std::atomic_ref<std::int64_t>(value);
}

}  // namespace

void Gauge::set(std::int64_t value) {
  atomicRefSigned(value_).store(value, std::memory_order_relaxed);
  atomicRef(writes_).fetch_add(1, std::memory_order_relaxed);
}

void Gauge::add(std::int64_t delta) {
  atomicRefSigned(value_).fetch_add(delta, std::memory_order_relaxed);
  atomicRef(writes_).fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Gauge::value() const {
  return atomicRefSigned(const_cast<std::int64_t&>(value_))
      .load(std::memory_order_relaxed);
}

bool Gauge::touched() const {
  return atomicRef(const_cast<std::uint64_t&>(writes_))
             .load(std::memory_order_relaxed) != 0;
}

void Gauge::reset() {
  atomicRefSigned(value_).store(0, std::memory_order_relaxed);
  atomicRef(writes_).store(0, std::memory_order_relaxed);
}

void Timer::record(std::chrono::nanoseconds elapsed) {
  atomicRef(count_).fetch_add(1, std::memory_order_relaxed);
  atomicRef(totalNs_).fetch_add(
      static_cast<std::uint64_t>(elapsed.count() < 0 ? 0 : elapsed.count()),
      std::memory_order_relaxed);
}

std::uint64_t Timer::count() const {
  return atomicRef(const_cast<std::uint64_t&>(count_))
      .load(std::memory_order_relaxed);
}

std::chrono::nanoseconds Timer::total() const {
  return std::chrono::nanoseconds(
      atomicRef(const_cast<std::uint64_t&>(totalNs_))
          .load(std::memory_order_relaxed));
}

void Timer::reset() {
  atomicRef(count_).store(0, std::memory_order_relaxed);
  atomicRef(totalNs_).store(0, std::memory_order_relaxed);
}

ScopedTimer::ScopedTimer(Timer& timer)
    : timer_(timer), start_(std::chrono::steady_clock::now()) {}

ScopedTimer::~ScopedTimer() {
  timer_.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start_));
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.counters[name];
}

Timer& timer(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.timers[name];
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.histograms[name];
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.gauges[name];
}

RollingHistogram& rolling(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.rollings[name];
}

namespace {

double nsToMs(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

Snapshot snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  Snapshot snap;
  for (const auto& [name, c] : r.counters)
    if (c.value() != 0) snap.counters.push_back({name, c.value()});
  for (const auto& [name, g] : r.gauges)
    if (g.touched()) snap.gauges.push_back({name, g.value()});
  for (const auto& [name, t] : r.timers)
    if (t.count() != 0)
      snap.timers.push_back(
          {name, t.count(),
           static_cast<double>(t.total().count()) / 1e6});
  for (const auto& [name, h] : r.histograms)
    if (h.count() != 0)
      snap.histograms.push_back({name, h.count(), nsToMs(h.quantile(0.5)),
                                 nsToMs(h.quantile(0.9)),
                                 nsToMs(h.quantile(0.99)),
                                 nsToMs(h.max())});
  for (const auto& [name, w] : r.rollings) {
    const RollingHistogram::Stats stats = w.stats();
    if (stats.count != 0)
      snap.rolling.push_back({name, stats.count, nsToMs(stats.p50),
                              nsToMs(stats.p90), nsToMs(stats.p99),
                              nsToMs(stats.max),
                              static_cast<std::int64_t>(w.window().count())});
  }
  return snap;  // std::map iteration is already name-sorted
}

void resetAll() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [name, c] : r.counters) c.reset();
  for (auto& [name, g] : r.gauges) g.reset();
  for (auto& [name, t] : r.timers) t.reset();
  for (auto& [name, h] : r.histograms) h.reset();
  for (auto& [name, w] : r.rollings) w.reset();
}

std::string toMarkdown(const Snapshot& snapshot) {
  if (snapshot.empty()) return "";
  std::ostringstream os;
  if (!snapshot.counters.empty()) {
    Table table({"counter", "value"});
    for (const CounterSample& c : snapshot.counters)
      table.addRow({c.name, std::to_string(c.value)});
    os << table.toMarkdown();

    std::uint64_t planHits = 0, planMisses = 0;
    for (const CounterSample& c : snapshot.counters) {
      if (c.name == kServicePlanCacheHits) planHits = c.value;
      if (c.name == kServicePlanCacheMisses) planMisses = c.value;
    }
    if (planHits + planMisses > 0) {
      std::ostringstream rate;
      rate.setf(std::ios::fixed);
      rate.precision(1);
      rate << (100.0 * static_cast<double>(planHits) /
               static_cast<double>(planHits + planMisses));
      os << "Plan cache hit rate: " << rate.str() << "%\n";
    }
  }
  if (!snapshot.gauges.empty()) {
    if (!snapshot.counters.empty()) os << "\n";
    Table table({"gauge", "value"});
    for (const GaugeSample& g : snapshot.gauges)
      table.addRow({g.name, std::to_string(g.value)});
    os << table.toMarkdown();
  }
  if (!snapshot.timers.empty()) {
    if (!snapshot.counters.empty() || !snapshot.gauges.empty()) os << "\n";
    Table table({"timer", "calls", "total ms", "mean ms"});
    for (const TimerSample& t : snapshot.timers) {
      std::ostringstream total, mean;
      total.setf(std::ios::fixed);
      total.precision(3);
      total << t.totalMs;
      mean.setf(std::ios::fixed);
      mean.precision(3);
      mean << (t.totalMs / static_cast<double>(t.count));
      table.addRow({t.name, std::to_string(t.count), total.str(),
                    mean.str()});
    }
    os << table.toMarkdown();
  }
  auto fixed = [](double value) {
    std::ostringstream cell;
    cell.setf(std::ios::fixed);
    cell.precision(3);
    cell << value;
    return cell.str();
  };
  if (!snapshot.histograms.empty()) {
    if (!snapshot.counters.empty() || !snapshot.gauges.empty() ||
        !snapshot.timers.empty())
      os << "\n";
    Table table({"histogram", "count", "p50 ms", "p90 ms", "p99 ms",
                 "max ms"});
    for (const HistogramSample& h : snapshot.histograms)
      table.addRow({h.name, std::to_string(h.count), fixed(h.p50Ms),
                    fixed(h.p90Ms), fixed(h.p99Ms), fixed(h.maxMs)});
    os << table.toMarkdown();
  }
  if (!snapshot.rolling.empty()) {
    if (!snapshot.counters.empty() || !snapshot.gauges.empty() ||
        !snapshot.timers.empty() || !snapshot.histograms.empty())
      os << "\n";
    Table table({"rolling", "window s", "count", "p50 ms", "p90 ms",
                 "p99 ms", "max ms"});
    for (const RollingSample& w : snapshot.rolling)
      table.addRow({w.name, std::to_string(w.windowMs / 1000),
                    std::to_string(w.count), fixed(w.p50Ms), fixed(w.p90Ms),
                    fixed(w.p99Ms), fixed(w.maxMs)});
    os << table.toMarkdown();
  }
  return os.str();
}

namespace {

std::string fixedMs(double ms) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << ms;
  return os.str();
}

/// Escapes a metric name for JSON (names are ASCII identifiers with dots,
/// but be defensive about quotes and backslashes).
std::string jsonEscape(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// RFC 4180 field quoting: fields containing commas, quotes, or line
/// breaks are wrapped in double quotes with embedded quotes doubled.
std::string csvField(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string toCsv(const Snapshot& snapshot) {
  if (snapshot.empty()) return "";
  std::ostringstream os;
  os << "kind,name,value,count,total_ms,p50_ms,p90_ms,p99_ms,max_ms\n";
  for (const CounterSample& c : snapshot.counters)
    os << "counter," << csvField(c.name) << "," << c.value << ",,,,,,\n";
  for (const GaugeSample& g : snapshot.gauges)
    os << "gauge," << csvField(g.name) << "," << g.value << ",,,,,,\n";
  for (const TimerSample& t : snapshot.timers)
    os << "timer," << csvField(t.name) << ",," << t.count << ","
       << fixedMs(t.totalMs) << ",,,,\n";
  for (const HistogramSample& h : snapshot.histograms)
    os << "histogram," << csvField(h.name) << ",," << h.count << ",,"
       << fixedMs(h.p50Ms) << "," << fixedMs(h.p90Ms) << ","
       << fixedMs(h.p99Ms) << "," << fixedMs(h.maxMs) << "\n";
  // Rolling rows reuse the histogram columns; the window length rides in
  // the otherwise-unused `value` column (milliseconds).
  for (const RollingSample& w : snapshot.rolling)
    os << "rolling," << csvField(w.name) << "," << w.windowMs << ","
       << w.count << ",," << fixedMs(w.p50Ms) << "," << fixedMs(w.p90Ms)
       << "," << fixedMs(w.p99Ms) << "," << fixedMs(w.maxMs) << "\n";
  return os.str();
}

std::string toJson(const Snapshot& snapshot) {
  if (snapshot.empty()) return "";
  std::ostringstream os;
  os << "{\"counters\": {";
  for (std::size_t k = 0; k < snapshot.counters.size(); ++k) {
    if (k > 0) os << ", ";
    os << "\"" << jsonEscape(snapshot.counters[k].name)
       << "\": " << snapshot.counters[k].value;
  }
  os << "}, \"gauges\": {";
  for (std::size_t k = 0; k < snapshot.gauges.size(); ++k) {
    if (k > 0) os << ", ";
    os << "\"" << jsonEscape(snapshot.gauges[k].name)
       << "\": " << snapshot.gauges[k].value;
  }
  os << "}, \"timers\": {";
  for (std::size_t k = 0; k < snapshot.timers.size(); ++k) {
    if (k > 0) os << ", ";
    os << "\"" << jsonEscape(snapshot.timers[k].name) << "\": {\"count\": "
       << snapshot.timers[k].count << ", \"total_ms\": "
       << fixedMs(snapshot.timers[k].totalMs) << "}";
  }
  os << "}, \"histograms\": {";
  for (std::size_t k = 0; k < snapshot.histograms.size(); ++k) {
    const HistogramSample& h = snapshot.histograms[k];
    if (k > 0) os << ", ";
    os << "\"" << jsonEscape(h.name) << "\": {\"count\": " << h.count
       << ", \"p50_ms\": " << fixedMs(h.p50Ms)
       << ", \"p90_ms\": " << fixedMs(h.p90Ms)
       << ", \"p99_ms\": " << fixedMs(h.p99Ms)
       << ", \"max_ms\": " << fixedMs(h.maxMs) << "}";
  }
  os << "}, \"rolling\": {";
  for (std::size_t k = 0; k < snapshot.rolling.size(); ++k) {
    const RollingSample& w = snapshot.rolling[k];
    if (k > 0) os << ", ";
    os << "\"" << jsonEscape(w.name) << "\": {\"count\": " << w.count
       << ", \"p50_ms\": " << fixedMs(w.p50Ms)
       << ", \"p90_ms\": " << fixedMs(w.p90Ms)
       << ", \"p99_ms\": " << fixedMs(w.p99Ms)
       << ", \"max_ms\": " << fixedMs(w.maxMs)
       << ", \"window_ms\": " << w.windowMs << "}";
  }
  os << "}}\n";
  return os.str();
}

std::vector<std::string> canonicalNames() {
  return {
      kDecodeCalls,
      kProgramsValidated,
      kDecodeLatency,
      kInstanceLatency,
      kVerifyLatency,
      kGenerationLatency,
      kTraceDropped,
      kServiceRequests,
      kServiceShards,
      kServiceShardRetries,
      kServiceWorkerCrashes,
      kServiceWorkerRestarts,
      kServiceShed,
      kServiceDeadlineExceeded,
      kServiceDegraded,
      kServiceWorkersPreforked,
      kServicePlanCacheHits,
      kServicePlanCacheMisses,
      kServicePlanCacheEvictions,
      kServicePlanCachePoisoned,
      kFabricShards,
      kFabricRerouted,
      kFabricHedged,
      kFabricHedgeWins,
      kFabricBreakerTrips,
      kFabricQuorumMismatch,
      kFabricDegraded,
      kBatchInstanceFailures,
      kBatchCancelled,
      kServiceRequestLatency,
      kServiceShardLatency,
      kSessionOpened,
      kSessionResumed,
      kSessionMutationsAccepted,
      kSessionMutationsRejected,
      kSessionPlans,
      kSessionDeltasCompacted,
      kSessionSnapshots,
      kSessionsRecovered,
      kSessionsQuarantined,
      kSessionsDrained,
      kServiceDrainedRequests,
      kSessionMutateLatency,
      kSessionPlanLatency,
      kFaultsInjected,
      kFaultsDetected,
      kIntegrityScans,
      kConformanceRuns,
      kVerifierCacheHits,
      kRecoveryResumes,
      kRecoveryPatches,
      kRecoveryRollbacks,
      kServiceStatsRequests,
      kServiceTraceDumps,
      kServiceWorkersAlive,
      kServiceQueueDepth,
      kServicePlanCacheSize,
      kSessionsOpenGauge,
      kSessionSchedulerDepth,
      kServiceRequestWindow,
      kSessionMutateWindow,
      kServiceChaosDiskFaults,
      kServiceChaosNetFaults,
      kServiceFramesRejected,
      kServiceReplRecordsShipped,
      kServiceReplSnapshotsShipped,
      kServiceReplShipErrors,
      kServiceReplLagRecords,
      kServiceReplLagMs,
      kServiceFailovers,
      kServiceStaleEpochRejected,
  };
}

}  // namespace rfsm::metrics
