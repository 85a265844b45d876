// Minimal inter-process plumbing for the planner service: length-framed
// messages over file descriptors, a binary message encoding, Unix-domain
// sockets, and worker-subprocess spawning.
//
// Everything here is written for *failure*, not for the happy path: reads
// honour deadlines (poll in bounded slices so a hung peer cannot wedge the
// caller), short reads and EOFs are distinguished from errors, frames are
// size-capped so a corrupt length prefix cannot OOM the supervisor, and
// message decoding throws IpcError on any truncation instead of reading
// garbage.  The supervisor (util/supervisor.hpp) builds crash isolation on
// top of these primitives.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/deadline.hpp"

namespace rfsm::ipc {

/// Thrown on transport and decoding failures (never on EOF or timeout,
/// which are expected outcomes with their own return values).
class IpcError : public Error {
 public:
  explicit IpcError(const std::string& what) : Error(what) {}
};

/// A frame that is malformed on the wire: CRC32C mismatch or an absurd
/// length prefix.  Distinguished from the base IpcError so callers can
/// report "malformed response" (the peer is alive but the bytes are bad)
/// instead of "unreachable", while every existing catch of IpcError still
/// contains it.  Each rejection bumps metrics::kServiceFramesRejected.
class FrameError : public IpcError {
 public:
  explicit FrameError(const std::string& what) : IpcError(what) {}
};

/// Frames larger than this are rejected as corrupt (a garbage length prefix
/// must not turn into a multi-gigabyte allocation).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// The fd a spawned worker speaks the frame protocol on (stdin/stdout stay
/// free for logging).
inline constexpr int kWorkerChannelFd = 3;

/// Owning file descriptor (close on destruction; movable, not copyable).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Releases ownership without closing.
  int release();
  /// Closes the held fd (idempotent).
  void reset();

 private:
  int fd_ = -1;
};

/// Ignores SIGPIPE process-wide so a write to a dead peer surfaces as an
/// EPIPE IpcError instead of killing the process.  Idempotent; every
/// service entry point (server, worker, client) calls it.
void ignoreSigpipe();

// --- Framing -------------------------------------------------------------
//
// A frame is a little-endian u32 payload length, the payload, and a
// little-endian u32 CRC32C of the payload.  The trailer turns wire
// corruption from silent misparse (or a hang on a mangled length) into a
// typed FrameError the retry/degradation ladder can absorb.

/// CRC32C (Castagnoli) of `bytes` — the per-frame trailer checksum.
std::uint32_t crc32c(std::string_view bytes);

/// Writes one frame, retrying on EINTR and short writes.  Throws IpcError
/// on any write failure (including EPIPE — the peer died).
void writeFrame(int fd, std::string_view payload);

/// Outcome of a deadline-bounded frame read.
enum class ReadStatus {
  kOk,       ///< `payload` holds a complete frame.
  kEof,      ///< Clean close before (or mid-)frame: the peer is gone.
  kTimeout,  ///< The cancel token expired before a full frame arrived.
};

/// Reads one frame.  Blocks in bounded poll slices, so a `cancel` token
/// with a deadline (or an asynchronous cancel()) turns a hung peer into
/// kTimeout instead of a wedged caller; cancel == nullptr blocks
/// indefinitely.  Throws IpcError on transport errors and FrameError on
/// malformed frames (oversized length prefix, CRC32C mismatch).
ReadStatus readFrame(int fd, std::string& payload,
                     const CancelToken* cancel = nullptr);

/// True when `fd` has bytes (or an EOF) ready to read right now.  On a
/// request/response channel a true result *before writing a request* means
/// the stream is desynchronized — a duplicated or unsolicited frame is
/// queued, and the next read would pair the wrong reply with this request.
/// Callers tear the connection down instead of exchanging on it.
bool pendingInput(int fd);

// --- Message encoding ----------------------------------------------------
//
// Frames carry flat sequences of little-endian integers and u32-length-
// prefixed strings.  The reader throws IpcError on truncation, so a torn or
// corrupted payload can never be silently misparsed.

class MessageWriter {
 public:
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i64(std::int64_t value);
  void str(std::string_view value);

  const std::string& data() const { return buffer_; }
  std::string take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

class MessageReader {
 public:
  explicit MessageReader(std::string_view payload) : payload_(payload) {}
  /// The reader only views the payload; a temporary would dangle.
  explicit MessageReader(std::string&&) = delete;

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  std::string str();

  bool atEnd() const { return pos_ == payload_.size(); }
  /// Bytes not yet consumed.
  std::size_t remaining() const { return payload_.size() - pos_; }
  /// Throws IpcError unless the whole payload was consumed (catches
  /// encoder/decoder drift early).
  void expectEnd() const;

 private:
  const unsigned char* need(std::size_t bytes);

  std::string_view payload_;
  std::size_t pos_ = 0;
};

// --- Unix-domain sockets -------------------------------------------------

/// Binds and listens on `path` (unlinking a stale socket first).  Throws
/// IpcError on failure.  All fds are close-on-exec.
Fd listenUnix(const std::string& path, int backlog = 16);

/// Accepts one connection; polls in bounded slices so `cancel` (or an
/// expired deadline) returns nullopt instead of blocking forever.  Works
/// for Unix and TCP listening sockets alike.
std::optional<Fd> acceptUnix(int listenFd, const CancelToken* cancel);

/// Connects to a listening Unix socket.  Throws IpcError on failure.
Fd connectUnix(const std::string& path);

// --- TCP sockets (the cross-host transport) ------------------------------

/// Binds and listens on host:port (SO_REUSEADDR; port 0 = ephemeral, read
/// the assignment back with localTcpPort).  Throws IpcError on failure.
Fd listenTcp(const std::string& host, std::uint16_t port, int backlog = 16);

/// Connects to host:port.  The connect itself is bounded by `timeoutMs`
/// (non-blocking connect + poll) so a dropped remote host costs a timeout,
/// not a hung shard; <= 0 falls back to the 5000 ms default.  Throws
/// IpcError on failure or timeout.
Fd connectTcp(const std::string& host, std::uint16_t port,
              std::int64_t timeoutMs = 0);

/// The local port a bound TCP socket ended up on (resolves port 0).
std::uint16_t localTcpPort(int fd);

// --- Endpoint addressing --------------------------------------------------
//
// One string names a planner-service endpoint on either transport:
//   unix:/path/to.sock   Unix-domain socket (explicit)
//   /path/to.sock        Unix-domain socket (any string with a '/')
//   tcp:host:port        TCP (explicit)
//   host:port            TCP (shorthand; the last ':' splits host/port)

struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< Unix socket path (kind == kUnix)
  std::string host;  ///< TCP host (kind == kTcp)
  std::uint16_t port = 0;

  /// The canonical display form ("unix:/path" / "tcp:host:port").
  std::string describe() const;
};

/// Parses an endpoint string; throws IpcError on malformed input (empty
/// string, non-numeric or out-of-range port).
Endpoint parseEndpoint(const std::string& text);

/// Splits a comma/whitespace-separated endpoint list (the RFSM_ENDPOINTS
/// environment format); empty items are skipped.
std::vector<Endpoint> parseEndpointList(const std::string& text);

/// Transport-dispatching connect/listen.
Fd connectEndpoint(const Endpoint& endpoint, std::int64_t timeoutMs = 0);
Fd listenEndpoint(const Endpoint& endpoint, int backlog = 16);

// --- Worker subprocesses -------------------------------------------------

/// A spawned worker process and the supervisor's end of its channel.
struct ChildProcess {
  int pid = -1;
  Fd channel;  ///< Frame transport; the child sees it as kWorkerChannelFd.
};

/// Forks and execs `command` (argv[0] = executable path) with one end of a
/// socketpair installed as kWorkerChannelFd.  Throws IpcError when the
/// spawn fails outright; an exec failure inside the child surfaces as an
/// immediate EOF on the channel (the supervisor treats it as a crash).
ChildProcess spawnWorker(const std::vector<std::string>& command);

/// Non-blocking liveness check; reaps and returns false when the child has
/// exited (exit status, if any, goes to *status).
bool childAlive(int pid, int* status = nullptr);

/// SIGKILLs and reaps the child (no-op for pid < 0).  Used for crash
/// isolation: a worker that overran its deadline is destroyed, never
/// joined.
void killChild(int pid);

}  // namespace rfsm::ipc
