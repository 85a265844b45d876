// A19 — Hot-standby failover sweep: the session replication plane under
// primary loss.  A real rfsmd primary quorum- or async-replicates a
// streaming session to a real rfsmd standby; the primary is SIGKILLed
// mid-stream and the client's SessionStream fails over to the standby,
// which promotes (epoch bump) and serves the rest of the stream.  Cells:
//
//  * failover grid — {quorum, async} x kill points x {no chaos,
//    repl-light}: the stitched post-failover transcript must be
//    byte-identical to an uninterrupted SessionEngine reference, with any
//    sequence gap healed by the client's rewind (re-open + resend); under
//    quorum the standby must resume at exactly the primary's acked
//    high-water mark (no acked mutation lost);
//  * deposed-primary cell — the killed primary restarts over its own state
//    dir still believing it is the epoch-1 primary; its next quorum ship
//    hits the promoted standby's higher epoch and the client is refused
//    with STALE_EPOCH (split-brain fenced, not silently forked);
//  * promotion cost — the time from first post-kill attempt to the first
//    acked mutation on the standby, reported per cell: warm replay keeps
//    it O(un-applied tail), not O(history).
//
// The binary exits 1 when any transcript diverges, an acked mutation is
// lost under quorum, or the deposed primary is not fenced.  `--smoke`
// shrinks the grid for the CI regression gate.
#include "common.hpp"
#include "rfsmd_harness.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/session.hpp"
#include "util/ipc.hpp"
#include "util/table.hpp"

namespace rfsm::bench {
namespace {

using namespace std::chrono_literals;
using service::MutationRecord;
using service::PlanOutcome;
using service::SessionConfig;
using service::SessionEngine;
using service::SessionStatus;

SessionConfig sessionConfig() {
  SessionConfig config;
  config.tenant = "ha";
  config.name = "stream";
  config.stateCount = 8;
  config.inputCount = 2;
  config.outputCount = 2;
  config.seed = 0xA19;
  config.planner = "jsr";
  return config;
}

service::SessionOpenRequest openRequestFor(const SessionConfig& config) {
  service::SessionOpenRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.priority = static_cast<std::uint32_t>(config.priority);
  request.weight = static_cast<std::uint32_t>(config.weight);
  request.planner = config.planner;
  request.stateCount = config.stateCount;
  request.inputCount = config.inputCount;
  request.outputCount = config.outputCount;
  request.seed = config.seed;
  return request;
}

service::SessionMutateRequest mutateRequestFor(const SessionConfig& config,
                                               std::uint64_t seq) {
  service::SessionMutateRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.seq = seq;
  request.deltaCount = 3;
  request.mutationSeed = 0xA19000 + seq;
  return request;
}

MutationRecord recordFor(std::uint64_t seq) {
  MutationRecord rec;
  rec.seq = seq;
  rec.deltaCount = 3;
  rec.mutationSeed = 0xA19000 + seq;
  return rec;
}

// --- Failover grid --------------------------------------------------------

struct FailoverCell {
  std::string ack;
  std::string chaos;  ///< "" = off
  std::uint64_t killAfter = 0;
  bool ok = false;
  bool byteIdentical = false;
  bool quorumLossless = true;  ///< resumed at the acked high-water mark
  std::uint64_t resumedAt = 0;
  std::uint64_t rewinds = 0;
  std::uint64_t failovers = 0;
  std::uint64_t standbyEpoch = 0;
  double promotionMs = 0.0;
  std::string detail;
};

/// Streams `total` mutations with the primary SIGKILLed after `killAfter`
/// acks; the client fails over to the standby and rewinds through any
/// sequence gap.  Returns every contract signal for the artifact table.
FailoverCell runFailoverCell(const std::string& ack, std::uint64_t killAfter,
                             std::uint64_t total, const std::string& chaos) {
  FailoverCell cell;
  cell.ack = ack;
  cell.chaos = chaos;
  cell.killAfter = killAfter;
  const SessionConfig config = sessionConfig();

  std::map<std::uint64_t, std::string> reference;
  {
    SessionEngine engine(config);
    for (std::uint64_t k = 1; k <= total; ++k) {
      const PlanOutcome outcome = engine.apply(recordFor(k));
      if (outcome.planned) reference[k] = outcome.program;
    }
  }

  char primaryTemplate[] = "/tmp/rfsm-a19p-XXXXXX";
  char standbyTemplate[] = "/tmp/rfsm-a19s-XXXXXX";
  const char* primaryDir = mkdtemp(primaryTemplate);
  const char* standbyDir = mkdtemp(standbyTemplate);
  if (primaryDir == nullptr || standbyDir == nullptr) {
    cell.detail = "mkdtemp failed";
    return cell;
  }
  const std::string primarySock = std::string(primaryDir) + "/rfsmd.sock";
  const std::string standbySock = std::string(standbyDir) + "/rfsmd.sock";

  Daemon standby;
  if (!standby.start(standbySock, standbyDir)) {
    cell.detail = "standby did not start";
    return cell;
  }
  std::vector<std::string> primaryExtra = {"--replica", standbySock,
                                           "--repl-ack", ack};
  if (!chaos.empty()) {
    primaryExtra.push_back("--chaos");
    primaryExtra.push_back("11:" + chaos);
  }
  Daemon primary;
  if (!primary.start(primarySock, primaryDir, primaryExtra)) {
    cell.detail = "primary did not start";
    return cell;
  }

  service::SessionStream::Options streamOptions;
  streamOptions.endpoints = {ipc::parseEndpoint(primarySock),
                             ipc::parseEndpoint(standbySock)};
  streamOptions.retryFor = 20s;

  // Answers for one seq must agree across resends — a rewind that replays
  // an already-recorded seq with different bytes is divergence, caught
  // here rather than averaged away.
  std::map<std::uint64_t, std::string> transcript;
  const auto record = [&cell, &transcript](std::uint64_t seq,
                                           const std::string& program) {
    const auto [it, fresh] = transcript.emplace(seq, program);
    if (!fresh && it->second != program) {
      cell.detail = "resent seq " + std::to_string(seq) + " diverged";
      return false;
    }
    return true;
  };

  try {
    service::SessionStream stream(streamOptions);
    if (stream.open(openRequestFor(config)).status != SessionStatus::kOk) {
      cell.detail = "open failed";
      return cell;
    }
    for (std::uint64_t k = 1; k <= killAfter; ++k) {
      const auto response = stream.mutate(mutateRequestFor(config, k));
      if (response.status != SessionStatus::kOk) {
        cell.detail = "pre-kill seq " + std::to_string(k) + ": " +
                      response.error;
        return cell;
      }
      if (!record(k, response.program)) return cell;
    }
    primary.stop(SIGKILL);

    // Post-kill: the stream rotates to the standby; a sequence gap (async
    // loss window) surfaces as kBadSequence and is healed by re-opening
    // (which promotes the standby) and resending from its high-water mark.
    const auto promotionStart = std::chrono::steady_clock::now();
    bool firstAck = true;
    std::uint64_t k = killAfter + 1;
    while (k <= total) {
      const auto response = stream.mutate(mutateRequestFor(config, k));
      if (response.status == SessionStatus::kBadSequence) {
        if (++cell.rewinds > 8) {
          cell.detail = "rewind bound exceeded";
          return cell;
        }
        const auto reopened = stream.open(openRequestFor(config));
        if (reopened.status != SessionStatus::kOk) {
          cell.detail = "rewind open failed: " + reopened.error;
          return cell;
        }
        if (cell.resumedAt == 0) cell.resumedAt = reopened.lastApplied;
        k = reopened.lastApplied + 1;
        continue;
      }
      if (response.status != SessionStatus::kOk) {
        cell.detail = "post-kill seq " + std::to_string(k) + ": " +
                      toString(response.status) + " " + response.error;
        return cell;
      }
      if (firstAck) {
        cell.promotionMs = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() -
                               promotionStart)
                               .count();
        if (cell.resumedAt == 0) cell.resumedAt = k - 1;
        firstAck = false;
      }
      if (!record(k, response.program)) return cell;
      ++k;
    }
    cell.failovers = stream.failovers();

    const auto status = stream.status({config.tenant, config.name});
    cell.standbyEpoch = status.epoch;
  } catch (const Error& error) {
    cell.detail = error.what();
    return cell;
  }

  cell.ok = true;
  cell.byteIdentical = transcript == reference;
  if (!cell.byteIdentical && cell.detail.empty())
    cell.detail = "transcript diverged";
  // Quorum: every acked record reached the standby's journal before the
  // ack, so the resume point can never trail the kill point.
  cell.quorumLossless = ack != "quorum" || cell.resumedAt >= killAfter;
  if (!cell.quorumLossless)
    cell.detail = "acked mutation lost under quorum (resumed at " +
                  std::to_string(cell.resumedAt) + " < " +
                  std::to_string(killAfter) + ")";
  return cell;
}

// --- Deposed-primary cell -------------------------------------------------

struct DeposedCell {
  bool ok = false;
  bool fenced = false;
  std::uint64_t staleEpochSeen = 0;
  std::string detail;
};

/// After a failover, the killed primary restarts over its own state dir
/// still believing it owns epoch 1; its next quorum ship must be refused
/// by the promoted standby and the client must see STALE_EPOCH.
DeposedCell runDeposedCell() {
  DeposedCell cell;
  const SessionConfig config = sessionConfig();
  const std::uint64_t kAcked = 3;

  char primaryTemplate[] = "/tmp/rfsm-a19d-XXXXXX";
  char standbyTemplate[] = "/tmp/rfsm-a19e-XXXXXX";
  const char* primaryDir = mkdtemp(primaryTemplate);
  const char* standbyDir = mkdtemp(standbyTemplate);
  if (primaryDir == nullptr || standbyDir == nullptr) {
    cell.detail = "mkdtemp failed";
    return cell;
  }
  const std::string primarySock = std::string(primaryDir) + "/rfsmd.sock";
  const std::string standbySock = std::string(standbyDir) + "/rfsmd.sock";

  Daemon standby;
  if (!standby.start(standbySock, standbyDir)) {
    cell.detail = "standby did not start";
    return cell;
  }
  Daemon primary;
  if (!primary.start(primarySock, primaryDir,
                     {"--replica", standbySock, "--repl-ack", "quorum"})) {
    cell.detail = "primary did not start";
    return cell;
  }

  try {
    service::SessionStream::Options primaryOnly;
    primaryOnly.endpoint = ipc::parseEndpoint(primarySock);
    primaryOnly.retryFor = 10s;
    {
      service::SessionStream stream(primaryOnly);
      if (stream.open(openRequestFor(config)).status != SessionStatus::kOk) {
        cell.detail = "open failed";
        return cell;
      }
      for (std::uint64_t k = 1; k <= kAcked; ++k)
        if (stream.mutate(mutateRequestFor(config, k)).status !=
            SessionStatus::kOk) {
          cell.detail = "seq " + std::to_string(k) + " failed";
          return cell;
        }
    }
    primary.stop(SIGKILL);

    // Failover: promote the standby by resuming the stream against it.
    service::SessionStream::Options standbyOnly;
    standbyOnly.endpoint = ipc::parseEndpoint(standbySock);
    standbyOnly.retryFor = 10s;
    {
      service::SessionStream stream(standbyOnly);
      const auto resumed = stream.open(openRequestFor(config));
      if (resumed.status != SessionStatus::kOk ||
          resumed.lastApplied != kAcked) {
        cell.detail = "standby resume failed";
        return cell;
      }
      if (stream.mutate(mutateRequestFor(config, kAcked + 1)).status !=
          SessionStatus::kOk) {
        cell.detail = "standby mutate failed";
        return cell;
      }
    }

    // The deposed primary comes back on its old state dir and keeps
    // streaming under epoch 1.
    Daemon deposed;
    if (!deposed.start(primarySock, primaryDir,
                       {"--replica", standbySock, "--repl-ack", "quorum"})) {
      cell.detail = "deposed primary did not restart";
      return cell;
    }
    service::SessionStream stream(primaryOnly);
    const auto resumed = stream.open(openRequestFor(config));
    if (resumed.status != SessionStatus::kOk) {
      cell.detail = "deposed resume failed";
      return cell;
    }
    const auto refused =
        stream.mutate(mutateRequestFor(config, resumed.lastApplied + 1));
    cell.fenced = refused.status == SessionStatus::kStaleEpoch;
    if (!cell.fenced)
      cell.detail = std::string("expected STALE_EPOCH, got ") +
                    toString(refused.status);

    service::SessionStream probe(standbyOnly);
    cell.staleEpochSeen = probe.status({config.tenant, config.name}).epoch;
  } catch (const Error& error) {
    cell.detail = error.what();
    return cell;
  }
  cell.ok = true;
  return cell;
}

// --- Artifact -------------------------------------------------------------

std::string formatMs(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

/// Returns true when every failover transcript is byte-identical, quorum
/// loses no acked mutation, and the deposed primary is fenced.
bool printArtifact(bool smoke) {
  banner("A19",
         "Failover sweep - WAL shipping, epoch fencing, standby promotion");

  struct GridSpec {
    std::string ack;
    std::uint64_t killAfter;
    std::string chaos;
  };
  std::vector<GridSpec> grid;
  const std::uint64_t total = smoke ? 6 : 10;
  if (smoke) {
    grid = {{"quorum", 3, ""}, {"async", 3, ""}};
  } else {
    for (const char* ack : {"quorum", "async"})
      for (const std::uint64_t killAfter : {2ull, 5ull})
        for (const char* chaos : {"", "repl-light"})
          grid.push_back({ack, killAfter, chaos});
  }

  std::vector<FailoverCell> cells;
  Table table({"ack", "kill@", "chaos", "resumed@", "rewinds", "epoch",
               "promote ms", "transcript"});
  bool allHold = true;
  for (const GridSpec& spec : grid) {
    cells.push_back(
        runFailoverCell(spec.ack, spec.killAfter, total, spec.chaos));
    const FailoverCell& cell = cells.back();
    const bool holds =
        cell.ok && cell.byteIdentical && cell.quorumLossless &&
        cell.failovers >= 1 && cell.standbyEpoch >= 2;
    allHold = allHold && holds;
    table.addRow({cell.ack, std::to_string(cell.killAfter),
                  cell.chaos.empty() ? "off" : cell.chaos,
                  std::to_string(cell.resumedAt),
                  std::to_string(cell.rewinds),
                  std::to_string(cell.standbyEpoch),
                  formatMs(cell.promotionMs),
                  holds ? "BYTE-IDENTICAL"
                        : "FAILED (" +
                              (cell.detail.empty() ? "?" : cell.detail) +
                              ")"});
  }
  std::cout << "\nfailover grid (" << total
            << " mutations per cell, primary SIGKILLed mid-stream, client "
               "fails over to the standby):\n"
            << table.toMarkdown();

  const DeposedCell deposed = runDeposedCell();
  const bool deposedHolds = deposed.ok && deposed.fenced;
  allHold = allHold && deposedHolds;
  std::cout << "\ndeposed-primary cell: old primary restarts on epoch 1 "
               "after the standby promoted to epoch "
            << deposed.staleEpochSeen << "\n  "
            << (deposedHolds
                    ? "client refused with STALE_EPOCH (split-brain fenced)"
                    : "NOT FENCED (" +
                          (deposed.detail.empty() ? "?" : deposed.detail) +
                          ")")
            << "\n";

  // Publish the per-cell signals for tools/bench_diff.py.
  std::ostringstream curves;
  curves << "\"curves\": {\n";
  const auto array = [&curves, &cells](const char* key, auto&& project,
                                       bool last = false) {
    curves << "    \"" << key << "\": [";
    for (std::size_t k = 0; k < cells.size(); ++k)
      curves << (k ? ", " : "") << project(cells[k]);
    curves << "]" << (last ? "" : ",") << "\n";
  };
  array("kill_after", [](const FailoverCell& c) { return c.killAfter; });
  array("resumed_at", [](const FailoverCell& c) { return c.resumedAt; });
  array("rewinds", [](const FailoverCell& c) { return c.rewinds; });
  array("standby_epoch", [](const FailoverCell& c) { return c.standbyEpoch; });
  array("promotion_ms", [](const FailoverCell& c) { return c.promotionMs; },
        /*last=*/true);
  curves << "  }";
  sidecarExtra() = curves.str();

  printTelemetry(artifactJobs());
  return allHold;
}

}  // namespace
}  // namespace rfsm::bench

int main(int argc, char** argv) {
  const std::string jsonOut = rfsm::bench::stripJsonOutFlag(argc, argv);
  bool smoke = false;
  int kept = 1;
  for (int k = 1; k < argc; ++k) {
    if (std::string(argv[k]) == "--smoke")
      smoke = true;
    else
      argv[kept++] = argv[k];
  }
  argc = kept;
  const auto artifactStart = std::chrono::steady_clock::now();
  const bool contractHolds = rfsm::bench::printArtifact(smoke);
  const double artifactMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - artifactStart)
          .count();
  if (!jsonOut.empty() &&
      !rfsm::bench::writeBenchJson(jsonOut, argv[0], artifactMs))
    return 1;
  if (!contractHolds) return 1;
  if (smoke) return 0;  // regression gate: artifact only, no timings
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::Shutdown();
  return 0;
}
