// Hermetic rfsmd processes for the benchmark.
//
// Every daemon is started with an explicit, complete flag list (daemonArgs),
// an environment with every RFSM_* variable removed, its working directory
// in the run's fresh mkdtemp directory, and PR_SET_PDEATHSIG so it cannot
// outlive the driver.  stop() sends SIGTERM and reaps; the driver is a child
// subreaper, so worker processes orphaned by a daemon are reaped too
// (reapAll).
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "util/ipc.hpp"

namespace perfbench {

/// The daemon roles the workloads and the ladder start.
enum class Role {
  kPlanCached,    ///< 2 preforked workers, plan cache on
  kPlanUncached,  ///< 2 preforked workers, plan cache off (ladder R2)
  kSessionSolo,   ///< --state-dir, no standby (ladder S3)
  kPrimary,       ///< --state-dir plus one quorum --replica
  kStandby,       ///< --state-dir, the primary's replica
};

/// The full rfsmd argv (without argv[0]) for `role`.  Every flag rfsmd
/// accepts is spelled out, so no default can drift under the benchmark.
std::vector<std::string> daemonArgs(Role role, const std::string& socket,
                                    const std::string& stateDir,
                                    const std::string& replica,
                                    const std::string& rfsmd);

class Daemon {
 public:
  /// Spawns `rfsmd` with `args`; stderr goes to <socket>.log.
  Daemon(const std::string& rfsmd, std::vector<std::string> args,
         std::string socket);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until a health probe answers (with every configured worker
  /// alive, for preforking daemons); throws after `timeoutMs`.
  void waitReady(int timeoutMs = 20000) const;

  /// SIGTERM, then reap (SIGKILL after 10 s).  Idempotent.
  void stop();

  /// Peak resident set (VmHWM) of the daemon and its live descendants, in
  /// kB.  Call before stop().
  long peakRssKb() const;

  const rfsm::ipc::Endpoint& endpoint() const { return endpoint_; }

 private:
  pid_t pid_ = -1;
  bool prefork_ = false;
  std::string socket_;
  rfsm::ipc::Endpoint endpoint_;
};

/// Makes the driver a child subreaper and drops RFSM_* from its own
/// environment, so everything it starts inherits a clean one.
void prepareProcess();

/// Kills (SIGTERM, then SIGKILL) and reaps every remaining child.
void reapAll();

}  // namespace perfbench
