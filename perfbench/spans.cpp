#include "spans.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> gNextId{1};
std::atomic<std::uint64_t> gNextTid{1};
thread_local std::uint64_t tCurrent = 0;
thread_local std::uint64_t tTid = 0;
thread_local bool tRecording = true;

std::uint64_t threadId() {
  if (tTid == 0) tTid = gNextTid.fetch_add(1);
  return tTid;
}

}  // namespace

std::uint64_t monotonicNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void Spans::setThreadRecording(bool recording) { tRecording = recording; }

bool Spans::recording() const { return enabled() && tRecording; }

Spans::Scope::Scope(Spans& spans, const char* name, std::uint64_t calls) {
  if (!spans.recording()) return;
  spans_ = &spans;
  event_.name = name;
  event_.calls = calls;
  event_.id = gNextId.fetch_add(1);
  event_.parent = tCurrent;
  event_.tid = threadId();
  savedParent_ = tCurrent;
  tCurrent = event_.id;
  event_.startNs = monotonicNs();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  event_.endNs = monotonicNs();
  tCurrent = savedParent_;
  spans_->record(std::move(event_));
}

void Spans::record(Event event) {
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

void Spans::write(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::uint64_t epoch = ~std::uint64_t{0};
  for (const Event& e : events_) epoch = std::min(epoch, e.startNs);
  if (events_.empty()) epoch = monotonicNs();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const long pid = static_cast<long>(::getpid());
  out << "{\"steadyEpochNs\":" << epoch << ",\"pid\":" << pid
      << ",\"processName\":\"perfbench\",\"traceEvents\":[\n"
      << "{\"ph\":\"M\",\"pid\":" << pid
      << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":"
         "\"perfbench\"}}";
  out.precision(3);
  out << std::fixed;
  for (const Event& e : events_) {
    out << ",\n{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":\"" << e.name
        << "\",\"pid\":" << pid << ",\"tid\":" << e.tid
        << ",\"ts\":" << static_cast<double>(e.startNs - epoch) / 1000.0
        << ",\"dur\":" << static_cast<double>(e.endNs - e.startNs) / 1000.0
        << ",\"args\":{\"id\":" << e.id << ",\"parent\":" << e.parent
        << ",\"calls\":" << e.calls << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace " + path);
}

}  // namespace perfbench
