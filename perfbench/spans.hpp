// Benchmark-side spans: the driver records one span around each call it
// makes into a layer (a client request, its codec and RPC halves, a ladder
// rung, a micro-benchmark loop) and writes them as a Chrome-trace dump that
// tools/trace_stitch.py reads.  Nothing inside the program is instrumented;
// run.py derives per-layer self times from these spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Event {
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t tid = 0;
    std::uint64_t calls = 1;   ///< loop spans: calls the duration covers
  };

  /// Times one call while recording is on; a no-op (no clock read, no
  /// allocation) while it is off.  Nested scopes on one thread parent
  /// under the innermost open scope.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t calls = 1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_ = nullptr;
    Event event_;
    std::uint64_t savedParent_ = 0;
  };

  void setEnabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }
  /// Per-thread switch under enabled(): a client thread alternates it per
  /// operation so traced and untraced operations interleave.
  static void setThreadRecording(bool recording);
  /// Whether a Scope opened on this thread now would record.
  bool recording() const;

  /// Writes the Chrome-trace dump (traceEvents plus the steadyEpochNs, pid
  /// and processName fields trace_stitch.py aligns processes by).
  void write(const std::string& path) const;

 private:
  void record(Event event);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// Monotonic clock in ns (CLOCK_MONOTONIC, the timebase of every rfsm
/// trace dump).
std::uint64_t monotonicNs();

}  // namespace perfbench
