// Real rfsmd processes and in-process planner servers for the daemon tests
// and benches: where the binary lives, private socket and state paths, and
// start / wait / stop / reap.  Header-only; tests/CMakeLists.txt's
// `rfsmd_harness` target supplies the build tree's rfsmd path.
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/server.hpp"
#include "util/deadline.hpp"
#include "util/fsio.hpp"

namespace rfsm {

/// The rfsmd binary: $RFSM_RFSMD when set, else the build tree's.
inline std::string rfsmdPath() {
  if (const char* env = std::getenv("RFSM_RFSMD")) return env;
#ifdef RFSM_RFSMD_BUILD_PATH
  return RFSM_RFSMD_BUILD_PATH;
#else
  return "rfsmd";
#endif
}

/// A unix socket path private to this process and `tag`.
inline std::string freshSocketPath(std::string_view tag) {
  return "/tmp/rfsm-" + std::to_string(::getpid()) + "-" + std::string(tag) +
         ".sock";
}

/// A throwaway directory, removed with its contents on scope exit.
struct TempDir {
  std::string path;

  TempDir() {
    char name[] = "/tmp/rfsm-test-XXXXXX";
    if (const char* made = ::mkdtemp(name)) path = made;
  }
  ~TempDir() {
    if (path.empty()) return;
    for (const std::string& file : fsio::listDir(path))
      ::unlink((path + "/" + file).c_str());
    ::rmdir(path.c_str());
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// An rfsmd subprocess: `--socket`, `--state-dir`, `--workers 1` and
/// `--snapshot-every 2`, then the caller's `extra` flags.  The destructor
/// SIGKILLs and reaps whatever still runs.
struct Daemon {
  pid_t pid = -1;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Forks and execs rfsmd, then polls for its socket 200 × 25 ms.  False
  /// when the fork fails or the socket never appears.
  bool start(const std::string& socketPath, const std::string& stateDir,
             const std::vector<std::string>& extra = {}) {
    std::vector<std::string> args = {
        rfsmdPath(), "--socket",  socketPath, "--state-dir",      stateDir,
        "--workers", "1",         "--snapshot-every", "2"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid = ::fork();
    if (pid == -1) return false;
    if (pid == 0) {
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    for (int spin = 0; spin < 200; ++spin) {
      if (::access(socketPath.c_str(), F_OK) == 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  }

  /// Sends `signal` and reaps.  Returns the wait status, or -1 when no
  /// daemon runs or the kill or the reap fails.
  int stop(int signal) {
    if (pid <= 0) return -1;
    int status = -1;
    if (::kill(pid, signal) != 0 || ::waitpid(pid, &status, 0) != pid)
      status = -1;
    pid = -1;
    return status;
  }

  ~Daemon() { stop(SIGKILL); }
};

/// The planner service the fabric tests and benches stand up: the build
/// tree's rfsmd as worker, shards of 4, 2 workers.
inline service::ServerOptions serverOptions(const std::string& socketPath) {
  service::ServerOptions options;
  options.socketPath = socketPath;
  options.workerBinary = rfsmdPath();
  options.shardSize = 4;
  options.pool.workers = 2;
  return options;
}

/// An in-process planner Server serving on its own thread until dropped.
struct RunningServer {
  std::string path;
  service::Server server;
  CancelToken stop;
  std::thread thread;

  explicit RunningServer(service::ServerOptions options)
      : path(options.socketPath),
        server(std::move(options)),
        thread([this] { server.run(&stop); }) {}
  explicit RunningServer(const std::string& socketPath)
      : RunningServer(serverOptions(socketPath)) {}
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  ~RunningServer() {
    stop.cancel();
    thread.join();
  }
};

}  // namespace rfsm
