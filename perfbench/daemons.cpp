#include "daemons.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "service/client.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// Parent pid of `pid` from /proc/<pid>/stat; -1 when it is gone.
pid_t parentOf(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return -1;
  // "pid (comm) state ppid ..." — comm may hold spaces, so skip past ')'.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(line.substr(close + 1));
  std::string state;
  long ppid = -1;
  rest >> state >> ppid;
  return static_cast<pid_t>(ppid);
}

long vmHwmKb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  return 0;
}

std::vector<pid_t> allPids() {
  std::vector<pid_t> pids;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return pids;
  while (const dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (end != entry->d_name && *end == '\0') pids.push_back(pid);
  }
  ::closedir(dir);
  return pids;
}

bool waitExit(pid_t pid, std::chrono::milliseconds limit) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < until) {
    const pid_t done = ::waitpid(pid, nullptr, WNOHANG);
    if (done == pid || (done < 0 && errno == ECHILD)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace

std::vector<std::string> daemonArgs(Role role, const std::string& socket,
                                    const std::string& stateDir,
                                    const std::string& replica,
                                    const std::string& rfsmd) {
  const bool plan = role == Role::kPlanCached || role == Role::kPlanUncached;
  std::vector<std::string> args = {
      "--socket", socket, "--worker-binary", rfsmd, "--workers", "2",
      "--shard-size", "4", "--queue", "64", "--max-attempts", "3",
      "--restart-limit", "5", "--restart-window-ms", "10000",
      "--idle-timeout-ms", "30000", "--attempt-timeout-ms", "0",
      "--fault", "none",
      "--plan-cache", role == Role::kPlanCached ? "4096" : "0",
      "--session-jobs", "2", "--snapshot-every", "32", "--tenant-rate", "0",
      "--tenant-burst", "16", "--max-sessions", "4096", "--repl-ack",
      "quorum", "--standby-grace", "0", "--max-connections", "32"};
  // Plan daemons fork and warm their workers before listening; session
  // daemons never plan batches, so their workers stay unspawned.  A
  // standby keeps every session it ever replicated (closes are not
  // shipped), hence the high session limit for rotating clients.  Sessions
  // snapshot every 32 mutations, not the default 8: at 8, one mutation in
  // eight waits for a whole-file durable replace on both daemons, and the
  // p90 tail then follows the disk's fsync jitter (a 20 % quartile spread
  // over ten runs).
  if (plan) args.push_back("--prefork");
  if (!plan) args.insert(args.end(), {"--state-dir", stateDir});
  if (role == Role::kPrimary)
    args.insert(args.end(), {"--replica", "unix:" + replica});
  return args;
}

void prepareProcess() {
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env)
    if (std::strncmp(*env, "RFSM_", 5) == 0) {
      const char* eq = std::strchr(*env, '=');
      names.emplace_back(*env, eq ? eq - *env : std::strlen(*env));
    }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

void reapAll() {
  const pid_t self = ::getpid();
  for (int sig : {SIGTERM, SIGKILL}) {
    bool any = false;
    for (pid_t pid : allPids())
      if (parentOf(pid) == self) {
        ::kill(pid, sig);
        any = true;
      }
    if (!any) break;
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::seconds(sig == SIGTERM ? 10 : 5);
    while (std::chrono::steady_clock::now() < until) {
      const pid_t done = ::waitpid(-1, nullptr, WNOHANG);
      if (done < 0) break;  // no children left
      if (done == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  while (::waitpid(-1, nullptr, WNOHANG) > 0) {
  }
}

Daemon::Daemon(const std::string& rfsmd, std::vector<std::string> args,
               std::string socket)
    : socket_(std::move(socket)) {
  for (const std::string& arg : args) prefork_ = prefork_ || arg == "--prefork";
  endpoint_ = rfsm::ipc::parseEndpoint("unix:" + socket_);
  ::unlink(socket_.c_str());
  std::vector<std::string> argv = {rfsmd};
  argv.insert(argv.end(), args.begin(), args.end());
  const std::string log = socket_ + ".log";
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<char*> cargv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::waitReady(int timeoutMs) const {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < until) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_)
      throw std::runtime_error("rfsmd on " + socket_ + " exited at startup");
    try {
      const auto health = rfsm::service::probeHealth(endpoint_, 1000);
      if (health &&
          (!prefork_ || health->workersAlive == health->workersConfigured))
        return;
    } catch (const std::exception&) {
      // not listening yet
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  throw std::runtime_error("rfsmd on " + socket_ + " not ready");
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  if (!waitExit(pid_, std::chrono::seconds(10))) {
    ::kill(pid_, SIGKILL);
    waitExit(pid_, std::chrono::seconds(5));
  }
  pid_ = -1;
}

long Daemon::peakRssKb() const {
  if (pid_ <= 0) return 0;
  std::vector<std::pair<pid_t, pid_t>> parents;  // (pid, ppid)
  for (pid_t pid : allPids()) parents.emplace_back(pid, parentOf(pid));
  // Walk the tree breadth-first: the daemon's workers are its children.
  long total = 0;
  std::vector<pid_t> frontier = {pid_};
  while (!frontier.empty()) {
    std::vector<pid_t> next;
    for (pid_t pid : frontier) {
      total += vmHwmKb(pid);
      for (const auto& [child, parent] : parents)
        if (parent == pid) next.push_back(child);
    }
    frontier = std::move(next);
  }
  return total;
}

}  // namespace perfbench
