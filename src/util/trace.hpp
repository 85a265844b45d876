// Process-wide span tracing in the Chrome trace-event format.
//
// The tracer records durational spans (ph "X"), instant events (ph "i"),
// and correlated async spans (ph "b"/"n"/"e" sharing an id) into a bounded
// in-memory ring buffer and renders them as JSON that loads directly in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.  Design rules:
//
//  * Zero-cost when disabled: every entry point starts with enabled(),
//    a single relaxed atomic load; ScopedSpan's constructor takes no
//    timestamp and its destructor does nothing.
//  * Bounded memory: the ring keeps the newest `capacity()` events; older
//    events are dropped and counted (droppedCount() and the
//    metrics::kTraceDropped counter), never reallocated.
//  * Thread-safe: one mutex guards the ring; timestamps come from a single
//    process-wide steady_clock epoch, so spans from different threads (and
//    the RTL cycle spans that correlate with VCD time) share one timebase.
//  * Deterministic results: tracing observes, it never steers — planner
//    output is bit-identical with tracing on or off.
//
// Enabling: RFSM_TRACE=1 in the environment (RFSM_TRACE_OUT=FILE
// additionally dumps the buffer at process exit), or setEnabled(true)
// programmatically (the CLI's --trace-out does this and writes explicitly).
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace rfsm::trace {

namespace detail {
extern std::atomic<bool> gEnabled;
}  // namespace detail

/// True when tracing is on.  This is the whole disabled-path cost: one
/// relaxed atomic load.
inline bool enabled() {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

/// Turns tracing on or off at runtime (tests, CLI --trace-out).
void setEnabled(bool on);

/// Resizes the ring buffer (default 32768 events) and clears it.
void setCapacity(std::size_t events);
std::size_t capacity();

/// Drops all buffered events and zeroes the dropped-event count.
void clear();

/// Events evicted by ring overflow since the last clear().
std::uint64_t droppedCount();

/// Events currently buffered.
std::size_t eventCount();

/// Nanoseconds since the process trace epoch — the shared timebase of
/// every span, including manual ones.
std::uint64_t nowNs();

/// The process trace epoch expressed on the machine-wide CLOCK_MONOTONIC
/// timebase (steady_clock's time_since_epoch, in ns).  Dumps publish it as
/// a top-level "steadyEpochNs" field so tools/trace_stitch.py can shift
/// every process of one host onto a single timeline; cross-host offsets
/// come from the kTraceDumpRequest clock handshake.
std::uint64_t steadyEpochNs();

/// Names this process in trace output (ph "M" process_name metadata and
/// the dump's top-level "processName").  Defaults to "".
void setProcessName(const std::string& name);
std::string processName();

// --- Distributed trace context -------------------------------------------
//
// A TraceContext identifies one distributed request: a 128-bit trace id
// shared by every span of the request across processes, the id of the span
// that is the current parent, and a sampling flag.  The context rides the
// service protocol frames (service/protocol.hpp appends it to plan, shard,
// and session-mutate requests); the receiving process adopts it with a
// ContextScope so its spans record remote parents.  Propagation never
// steers planning: the context is metadata, and with sampling off nothing
// is recorded or propagated, so results stay bit-identical.

struct TraceContext {
  std::uint64_t traceIdHi = 0;
  std::uint64_t traceIdLo = 0;
  /// The span the next child should parent under (0 = root).
  std::uint64_t spanId = 0;
  bool sampled = false;

  /// True when this context carries a real trace id.
  bool valid() const { return traceIdHi != 0 || traceIdLo != 0; }
  /// The 128-bit trace id as 32 lowercase hex digits.
  std::string traceIdHex() const;
};

/// The calling thread's current context (invalid when none is adopted).
TraceContext currentContext();

/// Starts a new trace rooted in this process: fresh 128-bit trace id,
/// fresh root span id, sampled = enabled().  Does not install it; wrap the
/// request in a ContextScope.
TraceContext beginTrace();

/// Process-unique span id (pid-salted, never 0).
std::uint64_t newSpanId();

/// RAII adoption of a context for the calling thread (restores the
/// previous context on destruction).  Used at every remote-request entry
/// point: server request handler, worker shard loop, session executor.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& context);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext previous_;
};

/// One "key": value argument of an event.  `value` is pre-rendered JSON:
/// use Arg::num for numbers / booleans and Arg::str for strings (which
/// escapes and quotes).
struct Arg {
  std::string key;
  std::string value;

  static Arg num(const std::string& key, std::int64_t value);
  static Arg num(const std::string& key, std::uint64_t value);
  static Arg num(const std::string& key, double value);
  static Arg boolean(const std::string& key, bool value);
  static Arg str(const std::string& key, const std::string& value);
};

using Args = std::initializer_list<Arg>;

/// Complete event (ph "X") with explicit start and duration, for spans
/// whose lifetime does not fit a scope.
void complete(const std::string& name, const std::string& category,
              std::uint64_t startNs, std::uint64_t durationNs,
              Args args = {});

/// Thread-scoped instant event (ph "i") — the building block of the
/// per-migration event log (cell writes, verify verdicts, decisions).
void instant(const std::string& name, const std::string& category,
             Args args = {});

/// Correlated async spans (ph "b"/"n"/"e").  Events sharing (category, id)
/// form one async track; a migration id correlates resume, patch, and
/// rollback steps across threads.  Ids come from newCorrelationId().
std::uint64_t newCorrelationId();
void asyncBegin(const std::string& name, const std::string& category,
                std::uint64_t id, Args args = {});
void asyncInstant(const std::string& name, const std::string& category,
                  std::uint64_t id, Args args = {});
void asyncEnd(const std::string& name, const std::string& category,
              std::uint64_t id, Args args = {});

/// Names the calling thread in trace output (ph "M" metadata).  Cheap and
/// recorded even while disabled, so threads created before setEnabled(true)
/// keep their names.
void setCurrentThreadName(const std::string& name);

/// RAII span: records a ph "X" complete event covering its lifetime.
/// `name` and `category` must outlive the span (string literals).  A span
/// constructed while tracing is disabled stays inert even if tracing is
/// enabled before it dies.
///
/// When the calling thread has a sampled TraceContext adopted, the span
/// joins the distributed trace: it takes a fresh span id, records the
/// context's span id as its parent (trace_id / span_id / parent_span_id
/// args), and installs itself as the thread's current parent for its
/// lifetime, so nested spans — and contexts serialized onto outgoing
/// frames — chain causally.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category, Args args = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches an argument discovered mid-span (e.g. a result count).
  void addArg(const Arg& arg);

  /// False for an inert span (tracing was off at construction): callers
  /// whose arguments are costly to format check this before building them.
  bool recording() const { return name_ != nullptr; }

  /// This span's id in the distributed trace (0 when the span is inert or
  /// no context is adopted).
  std::uint64_t spanId() const { return spanId_; }

 private:
  const char* name_;  // nullptr = inert
  const char* category_;
  std::uint64_t startNs_ = 0;
  std::uint64_t spanId_ = 0;
  bool restoreContext_ = false;
  TraceContext previousContext_;
  std::string argsJson_;
};

/// Renders the buffered events as a Chrome trace-event JSON object
/// ({"traceEvents": [...]}), including thread-name metadata plus the
/// top-level "steadyEpochNs", "pid", and "processName" fields that
/// tools/trace_stitch.py uses to merge per-process dumps onto one
/// timeline.  Does not clear the buffer.
std::string toJson();

/// Writes toJson() to `path`; false when the file cannot be written.
/// "%p" in the path expands to the pid, so worker subprocesses inheriting
/// RFSM_TRACE_OUT write distinct files instead of clobbering the parent's.
bool writeFile(const std::string& path);

/// Flushes the ring to $RFSM_TRACE_OUT (with %p expansion) when that
/// variable is set; false when unset or unwritable.  The rfsmd drain path
/// calls this so a SIGTERMed daemon keeps its trace without relying on
/// atexit ordering.
bool dumpToEnv();

}  // namespace rfsm::trace
