#include "util/chaos.hpp"

#include <cstdlib>

#include "util/hash.hpp"
#include "util/metrics.hpp"

namespace rfsm::chaos {
namespace {

bool isDiskSite(Site site) {
  switch (site) {
    case Site::kDiskWrite:
    case Site::kDiskFsync:
    case Site::kDiskRename:
    case Site::kDiskAppend:
      return true;
    case Site::kNetConnect:
    case Site::kNetWrite:
    case Site::kNetRead:
    case Site::kReplConnect:
    case Site::kReplWrite:
    case Site::kReplRead:
      return false;
  }
  return false;
}

/// Depth, not a flag: the replicator may nest scopes across retry layers.
thread_local int replLinkDepth = 0;

Profile diskLight() {
  Profile p;
  p.name = "disk-light";
  p.diskErrorProbability = 0.02;
  p.shortWriteProbability = 0.02;
  p.fsyncFailProbability = 0.01;
  p.tornRenameProbability = 0.02;
  p.truncateProbability = 0.03;
  return p;
}

Profile diskStorm() {
  Profile p;
  p.name = "disk-storm";
  p.diskErrorProbability = 0.10;
  p.shortWriteProbability = 0.10;
  p.fsyncFailProbability = 0.05;
  p.tornRenameProbability = 0.10;
  p.truncateProbability = 0.15;
  return p;
}

Profile netLight() {
  Profile p;
  p.name = "net-light";
  p.connectResetProbability = 0.03;
  p.resetProbability = 0.03;
  p.partialWriteProbability = 0.03;
  p.stallProbability = 0.02;
  p.duplicateProbability = 0.03;
  p.corruptProbability = 0.03;
  return p;
}

Profile netStorm() {
  Profile p;
  p.name = "net-storm";
  p.connectResetProbability = 0.10;
  p.resetProbability = 0.10;
  p.partialWriteProbability = 0.10;
  p.stallProbability = 0.05;
  p.duplicateProbability = 0.10;
  p.corruptProbability = 0.10;
  return p;
}

Profile replLight() {
  Profile p;
  p.name = "repl-light";
  p.replConnectResetProbability = 0.03;
  p.replResetProbability = 0.03;
  p.replPartialWriteProbability = 0.03;
  p.replStallProbability = 0.02;
  p.replDuplicateProbability = 0.03;
  p.replCorruptProbability = 0.03;
  return p;
}

Profile replStorm() {
  Profile p;
  p.name = "repl-storm";
  p.replConnectResetProbability = 0.10;
  p.replResetProbability = 0.10;
  p.replPartialWriteProbability = 0.10;
  p.replStallProbability = 0.05;
  p.replDuplicateProbability = 0.10;
  p.replCorruptProbability = 0.10;
  return p;
}

Profile fullProfile() {
  Profile disk = diskLight();
  Profile net = netLight();
  Profile repl = replLight();
  Profile p = disk;
  p.name = "full";
  p.connectResetProbability = net.connectResetProbability;
  p.resetProbability = net.resetProbability;
  p.partialWriteProbability = net.partialWriteProbability;
  p.stallProbability = net.stallProbability;
  p.duplicateProbability = net.duplicateProbability;
  p.corruptProbability = net.corruptProbability;
  p.replConnectResetProbability = repl.replConnectResetProbability;
  p.replResetProbability = repl.replResetProbability;
  p.replPartialWriteProbability = repl.replPartialWriteProbability;
  p.replStallProbability = repl.replStallProbability;
  p.replDuplicateProbability = repl.replDuplicateProbability;
  p.replCorruptProbability = repl.replCorruptProbability;
  return p;
}

}  // namespace

std::optional<Profile> profileByName(const std::string& name) {
  if (name == "off") return Profile{};
  if (name == "disk-light") return diskLight();
  if (name == "disk-storm") return diskStorm();
  if (name == "net-light") return netLight();
  if (name == "net-storm") return netStorm();
  if (name == "repl-light") return replLight();
  if (name == "repl-storm") return replStorm();
  if (name == "full") return fullProfile();
  return std::nullopt;
}

const std::vector<std::string>& profileNames() {
  static const std::vector<std::string> names = {
      "off",       "disk-light", "disk-storm", "net-light",
      "net-storm", "repl-light", "repl-storm", "full"};
  return names;
}

ScopedReplLink::ScopedReplLink() { ++replLinkDepth; }
ScopedReplLink::~ScopedReplLink() { --replLinkDepth; }

bool onReplLink() { return replLinkDepth > 0; }

void FaultPlane::arm(std::uint64_t seed, const Profile& profile) {
  std::lock_guard<std::mutex> lock(mutex_);
  seed_ = seed;
  profile_ = profile;
  streams_.clear();
  draws_.assign(kSiteCount, 0);
  const Rng root(seed);
  for (std::size_t site = 0; site < kSiteCount; ++site) {
    streams_.push_back(root.substream(site));
  }
  injectedDisk_ = 0;
  injectedNet_ = 0;
  journal_.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultPlane::armFromSpec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    throw Error("chaos spec '" + spec + "' is not of the form <seed>:<profile>");
  }
  std::uint64_t seed = 0;
  try {
    std::size_t used = 0;
    seed = std::stoull(spec.substr(0, colon), &used, 10);
    if (used != colon) throw std::invalid_argument(spec);
  } catch (const std::exception&) {
    throw Error("chaos seed '" + spec.substr(0, colon) +
                "' is not an unsigned integer");
  }
  const std::string name = spec.substr(colon + 1);
  const std::optional<Profile> profile = profileByName(name);
  if (!profile) {
    std::string known;
    for (const std::string& candidate : profileNames()) {
      if (!known.empty()) known += ", ";
      known += candidate;
    }
    throw Error("unknown chaos profile '" + name + "' (known: " + known + ")");
  }
  arm(seed, *profile);
}

bool FaultPlane::armFromEnv() {
  const char* spec = std::getenv("RFSM_CHAOS");
  if (spec == nullptr || *spec == '\0') return false;
  armFromSpec(spec);
  return true;
}

void FaultPlane::disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t FaultPlane::seed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seed_;
}

Profile FaultPlane::profile() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return profile_;
}

// Draws happen unconditionally (per-site ordinals keep counting) so the
// schedule never depends on how many faults already fired; the budget only
// suppresses the *injection*.
bool FaultPlane::fire(Site site, double probability, std::uint32_t kind) {
  const std::size_t index = static_cast<std::size_t>(site);
  const std::uint64_t ordinal = draws_[index];
  const bool hit = streams_[index].chance(probability);
  if (!hit) return false;
  if (injectedDisk_ + injectedNet_ >= profile_.maxFaults) return false;
  if (isDiskSite(site)) {
    ++injectedDisk_;
    metrics::counter(metrics::kServiceChaosDiskFaults).add();
  } else {
    ++injectedNet_;
    metrics::counter(metrics::kServiceChaosNetFaults).add();
  }
  journal_.push_back(Event{site, kind, ordinal});
  return true;
}

FaultPlane::DiskWriteFault FaultPlane::onDiskWrite() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streams_.empty()) return DiskWriteFault::kNone;
  const std::size_t index = static_cast<std::size_t>(Site::kDiskWrite);
  // One uniform draw decides the fault kind so the ordinal advances exactly
  // once per consultation regardless of outcome.
  const double roll = streams_[index].uniform();
  ++draws_[index];
  DiskWriteFault fault = DiskWriteFault::kNone;
  const Profile& p = profile_;
  if (roll < p.diskErrorProbability / 2.0) {
    fault = DiskWriteFault::kEnospc;
  } else if (roll < p.diskErrorProbability) {
    fault = DiskWriteFault::kEio;
  } else if (roll < p.diskErrorProbability + p.shortWriteProbability) {
    fault = DiskWriteFault::kShort;
  }
  if (fault == DiskWriteFault::kNone) return fault;
  if (injectedDisk_ + injectedNet_ >= p.maxFaults) return DiskWriteFault::kNone;
  ++injectedDisk_;
  metrics::counter(metrics::kServiceChaosDiskFaults).add();
  journal_.push_back(Event{Site::kDiskWrite,
                           static_cast<std::uint32_t>(fault),
                           draws_[index] - 1});
  return fault;
}

bool FaultPlane::onFsync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streams_.empty()) return false;
  const bool hit = fire(Site::kDiskFsync, profile_.fsyncFailProbability, 1);
  ++draws_[static_cast<std::size_t>(Site::kDiskFsync)];
  return hit;
}

bool FaultPlane::onRename() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streams_.empty()) return false;
  const bool hit = fire(Site::kDiskRename, profile_.tornRenameProbability, 1);
  ++draws_[static_cast<std::size_t>(Site::kDiskRename)];
  return hit;
}

std::optional<double> FaultPlane::onAppend() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streams_.empty()) return std::nullopt;
  const std::size_t index = static_cast<std::size_t>(Site::kDiskAppend);
  const bool hit = fire(Site::kDiskAppend, profile_.truncateProbability, 1);
  // The cut position draws from the same stream whether or not the fault
  // fires, keeping subsequent ordinals aligned across replays.
  const double fraction = streams_[index].uniform();
  draws_[index] += 2;
  if (!hit) return std::nullopt;
  return fraction;
}

FaultPlane::NetWriteFault FaultPlane::onNetWrite() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streams_.empty()) return NetWriteFault::kNone;
  const bool repl = onReplLink();
  const Site site = repl ? Site::kReplWrite : Site::kNetWrite;
  const std::size_t index = static_cast<std::size_t>(site);
  const double roll = streams_[index].uniform();
  ++draws_[index];
  const Profile& p = profile_;
  NetWriteFault fault = NetWriteFault::kNone;
  double edge = repl ? p.replResetProbability : p.resetProbability;
  if (roll < edge) {
    fault = NetWriteFault::kReset;
  } else if (roll < (edge += repl ? p.replPartialWriteProbability
                                  : p.partialWriteProbability)) {
    fault = NetWriteFault::kPartial;
  } else if (roll <
             (edge += repl ? p.replStallProbability : p.stallProbability)) {
    fault = NetWriteFault::kStall;
  } else if (roll < (edge += repl ? p.replDuplicateProbability
                                  : p.duplicateProbability)) {
    fault = NetWriteFault::kDuplicate;
  } else if (roll <
             (edge += repl ? p.replCorruptProbability
                           : p.corruptProbability)) {
    fault = NetWriteFault::kCorrupt;
  }
  if (fault == NetWriteFault::kNone) return fault;
  if (injectedDisk_ + injectedNet_ >= p.maxFaults) return NetWriteFault::kNone;
  ++injectedNet_;
  metrics::counter(metrics::kServiceChaosNetFaults).add();
  journal_.push_back(Event{site,
                           static_cast<std::uint32_t>(fault),
                           draws_[index] - 1});
  return fault;
}

FaultPlane::NetReadFault FaultPlane::onNetRead() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streams_.empty()) return NetReadFault::kNone;
  const bool repl = onReplLink();
  const Site site = repl ? Site::kReplRead : Site::kNetRead;
  const std::size_t index = static_cast<std::size_t>(site);
  const double roll = streams_[index].uniform();
  ++draws_[index];
  const Profile& p = profile_;
  const double stall = repl ? p.replStallProbability : p.stallProbability;
  const double reset = repl ? p.replResetProbability : p.resetProbability;
  NetReadFault fault = NetReadFault::kNone;
  if (roll < stall) {
    fault = NetReadFault::kStall;
  } else if (roll < stall + reset) {
    fault = NetReadFault::kReset;
  }
  if (fault == NetReadFault::kNone) return fault;
  if (injectedDisk_ + injectedNet_ >= p.maxFaults) return NetReadFault::kNone;
  ++injectedNet_;
  metrics::counter(metrics::kServiceChaosNetFaults).add();
  journal_.push_back(Event{site,
                           static_cast<std::uint32_t>(fault),
                           draws_[index] - 1});
  return fault;
}

bool FaultPlane::onConnect() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (streams_.empty()) return false;
  const bool repl = onReplLink();
  const Site site = repl ? Site::kReplConnect : Site::kNetConnect;
  const bool hit = fire(site,
                        repl ? profile_.replConnectResetProbability
                             : profile_.connectResetProbability,
                        1);
  ++draws_[static_cast<std::size_t>(site)];
  return hit;
}

std::uint64_t FaultPlane::drawBelow(Site site, std::uint64_t bound) {
  RFSM_CHECK(bound > 0, "chaos drawBelow bound must be positive");
  // Positioning draws follow the decision draw onto the repl twin, so the
  // client-facing streams never advance for replication-link traffic.
  if (onReplLink()) {
    if (site == Site::kNetWrite) site = Site::kReplWrite;
    if (site == Site::kNetRead) site = Site::kReplRead;
    if (site == Site::kNetConnect) site = Site::kReplConnect;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (streams_.empty()) return 0;
  const std::size_t index = static_cast<std::size_t>(site);
  ++draws_[index];
  return streams_[index].below(bound);
}

std::uint64_t FaultPlane::injectedDisk() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injectedDisk_;
}

std::uint64_t FaultPlane::injectedNet() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injectedNet_;
}

std::uint64_t FaultPlane::journalDigest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t hash = kFnv1a64Basis;
  for (const Event& event : journal_) {
    hash = fnv1a64(static_cast<std::uint64_t>(event.site), hash);
    hash = fnv1a64(std::uint64_t{event.kind}, hash);
    hash = fnv1a64(event.ordinal, hash);
  }
  return hash;
}

std::vector<Event> FaultPlane::journal() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return journal_;
}

FaultPlane& plane() {
  static FaultPlane* instance = new FaultPlane();
  return *instance;
}

}  // namespace rfsm::chaos
