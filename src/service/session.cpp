#include "service/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <sstream>
#include <utility>

#include "core/journal.hpp"
#include "core/migration.hpp"
#include "core/mutable_machine.hpp"
#include "core/program.hpp"
#include "fsm/serialize.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "util/backoff.hpp"
#include "util/fsio.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace rfsm::service {
namespace {

constexpr const char* kWalHeader = "rfsm-session-journal v1";
constexpr const char* kSnapshotMagic = "rfsm-session-snapshot v1";

std::string openPayload(const SessionConfig& config, std::uint64_t epoch = 1,
                        bool standby = false) {
  std::ostringstream os;
  os << "open " << config.tenant << " " << config.name << " "
     << config.priority << " " << static_cast<int>(config.weight) << " "
     << config.planner << " " << config.stateCount << " "
     << config.inputCount << " " << config.outputCount << " " << config.seed
     << " " << epoch << " " << (standby ? 1 : 0);
  return os.str();
}

bool parseOpenPayload(const std::string& payload, SessionConfig& config,
                      std::uint64_t* epoch = nullptr,
                      bool* standby = nullptr) {
  const auto tokens = splitWhitespace(payload);
  // 10 tokens = the pre-replication journal format (epoch 1, primary);
  // 12 tokens append the fencing epoch and the standby role.
  if ((tokens.size() != 10 && tokens.size() != 12) || tokens[0] != "open")
    return false;
  try {
    config.tenant = tokens[1];
    config.name = tokens[2];
    config.priority = std::stoi(tokens[3]);
    config.weight = std::max(1, std::stoi(tokens[4]));
    config.planner = tokens[5];
    config.stateCount = std::stoi(tokens[6]);
    config.inputCount = std::stoi(tokens[7]);
    config.outputCount = std::stoi(tokens[8]);
    config.seed = std::stoull(tokens[9]);
    if (epoch != nullptr) *epoch = 1;
    if (standby != nullptr) *standby = false;
    if (tokens.size() == 12) {
      if (epoch != nullptr) *epoch = std::max<std::uint64_t>(1, std::stoull(tokens[10]));
      if (standby != nullptr) *standby = tokens[11] == "1";
    }
  } catch (const std::exception&) {
    return false;
  }
  return validSessionName(config.tenant) && validSessionName(config.name);
}

std::string mutPayload(const MutationRecord& rec) {
  std::ostringstream os;
  os << "mut " << rec.seq << " " << rec.deltaCount << " "
     << rec.newStateCount << " " << rec.mutationSeed << " "
     << (rec.defer ? 1 : 0);
  return os.str();
}

bool parseMutPayload(const std::string& payload, MutationRecord& rec) {
  const auto tokens = splitWhitespace(payload);
  if (tokens.size() != 6 || tokens[0] != "mut") return false;
  try {
    rec.seq = std::stoull(tokens[1]);
    rec.deltaCount = static_cast<std::uint32_t>(std::stoul(tokens[2]));
    rec.newStateCount = static_cast<std::uint32_t>(std::stoul(tokens[3]));
    rec.mutationSeed = std::stoull(tokens[4]);
    rec.defer = tokens[5] == "1";
  } catch (const std::exception&) {
    return false;
  }
  return rec.seq > 0;
}

/// The wire form of one journaled record for the replication plane:
/// config (so the standby can self-create), fencing epoch, and the
/// MutationRecord field for field.
SessionReplAppendRequest replRequestFor(const SessionConfig& config,
                                        std::uint64_t epoch,
                                        const MutationRecord& rec) {
  SessionReplAppendRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.priority = static_cast<std::uint32_t>(config.priority);
  request.weight =
      static_cast<std::uint32_t>(std::max(1, static_cast<int>(config.weight)));
  request.planner = config.planner;
  request.stateCount = config.stateCount;
  request.inputCount = config.inputCount;
  request.outputCount = config.outputCount;
  request.seed = config.seed;
  request.epoch = epoch;
  request.seq = rec.seq;
  request.deltaCount = rec.deltaCount;
  request.newStateCount = rec.newStateCount;
  request.mutationSeed = rec.mutationSeed;
  request.defer = rec.defer;
  return request;
}

}  // namespace

bool validSessionName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

// --- SessionEngine --------------------------------------------------------

namespace {

Machine initialMachine(const SessionConfig& config) {
  RandomMachineSpec spec;
  spec.stateCount = config.stateCount;
  spec.inputCount = config.inputCount;
  spec.outputCount = config.outputCount;
  spec.name = config.name;
  Rng rng(config.seed);
  return randomMachine(spec, rng);
}

}  // namespace

SessionEngine::SessionEngine(SessionConfig config)
    : config_(std::move(config)), machine_(initialMachine(config_)) {}

SessionEngine::SessionEngine(SessionConfig config, Machine machine)
    : config_(std::move(config)), machine_(std::move(machine)) {}

PlanOutcome SessionEngine::apply(const MutationRecord& rec) {
  RFSM_CHECK(rec.seq == lastApplied_ + 1,
             "session mutations must apply in sequence order");
  lastApplied_ = rec.seq;
  PlanOutcome outcome;
  if (rec.defer) {
    pending_.push_back(rec);
    return outcome;
  }
  // Compose the deferred run plus this record into one target, then plan
  // the *net* delta set between the resident machine and that target:
  // superseded and reverted cells drop out (that is the compaction).  Work
  // on copies so a failure consumes only this record's sequence number.
  try {
    Machine target = machine_;
    int raw = 0;
    std::vector<MutationRecord> run = pending_;
    run.push_back(rec);
    for (const MutationRecord& r : run) {
      MutationSpec spec;
      spec.deltaCount = static_cast<int>(r.deltaCount);
      spec.newStateCount = static_cast<int>(r.newStateCount);
      spec.name = config_.name + "#" + std::to_string(r.seq);
      Rng rng(r.mutationSeed);
      target = mutateMachine(target, spec, rng);
      raw += spec.deltaCount;
    }
    const MigrationContext context(machine_, target);
    Rng planRng =
        Rng(config_.seed).substream(kSessionPlanStreamBase + planCount_);
    const ReconfigurationProgram program =
        plannerFn(config_.planner)(context, planRng);
    // Advance the resident machine by executing the program, exactly as
    // the Fig. 5 datapath would — and verify it landed on the target.
    MutableMachine resident(context);
    resident.applyProgram(program);
    std::string reason;
    if (!resident.matchesTarget(&reason))
      throw Error("planned program misses the target: " + reason);
    outcome.planned = true;
    outcome.program = programToText(context, program);
    outcome.compactedFrom = run.size();
    outcome.deltasPlanned = context.deltaCount();
    outcome.deltasRaw = raw;
    machine_ = std::move(target);
    pending_.clear();
    ++planCount_;
  } catch (const Error& error) {
    outcome = PlanOutcome{};
    outcome.failed = true;
    outcome.error = error.what();
  }
  return outcome;
}

void SessionEngine::encodeSnapshot(ipc::MessageWriter& writer) const {
  writer.str(kSnapshotMagic);
  writer.str(config_.tenant);
  writer.str(config_.name);
  writer.u32(static_cast<std::uint32_t>(config_.priority));
  writer.u32(static_cast<std::uint32_t>(config_.weight));
  writer.str(config_.planner);
  writer.u32(static_cast<std::uint32_t>(config_.stateCount));
  writer.u32(static_cast<std::uint32_t>(config_.inputCount));
  writer.u32(static_cast<std::uint32_t>(config_.outputCount));
  writer.u64(config_.seed);
  writer.u64(lastApplied_);
  writer.u64(planCount_);
  writer.str(toJson(machine_));
  writer.u32(static_cast<std::uint32_t>(pending_.size()));
  for (const MutationRecord& rec : pending_) {
    writer.u64(rec.seq);
    writer.u32(rec.deltaCount);
    writer.u32(rec.newStateCount);
    writer.u64(rec.mutationSeed);
    writer.u32(rec.defer ? 1 : 0);
  }
}

SessionEngine SessionEngine::decodeSnapshot(ipc::MessageReader& reader) {
  const std::string magic = reader.str();
  if (magic != kSnapshotMagic)
    throw ipc::IpcError("bad session snapshot magic '" + magic + "'");
  SessionConfig config;
  config.tenant = reader.str();
  config.name = reader.str();
  config.priority = static_cast<int>(reader.u32());
  config.weight = static_cast<double>(reader.u32());
  config.planner = reader.str();
  config.stateCount = static_cast<int>(reader.u32());
  config.inputCount = static_cast<int>(reader.u32());
  config.outputCount = static_cast<int>(reader.u32());
  config.seed = reader.u64();
  const std::uint64_t lastApplied = reader.u64();
  const std::uint64_t planCount = reader.u64();
  Machine machine = machineFromJson(reader.str());
  SessionEngine engine(std::move(config), std::move(machine));
  engine.lastApplied_ = lastApplied;
  engine.planCount_ = planCount;
  const std::uint32_t pending = reader.u32();
  for (std::uint32_t k = 0; k < pending; ++k) {
    MutationRecord rec;
    rec.seq = reader.u64();
    rec.deltaCount = reader.u32();
    rec.newStateCount = reader.u32();
    rec.mutationSeed = reader.u64();
    rec.defer = reader.u32() != 0;
    engine.pending_.push_back(rec);
  }
  return engine;
}

// --- SessionService -------------------------------------------------------

struct SessionService::Session {
  explicit Session(SessionEngine e)
      : engine(std::move(e)), wal(kWalHeader) {}

  SessionEngine engine;
  /// Journal high-water mark: highest seq accepted (journaled + queued).
  std::uint64_t lastAccepted = 0;
  /// engine.lastApplied() mirrored under the store mutex — the engine
  /// itself is only touched by the executor holding this flow's in-flight
  /// slot, so readers must not reach into it.
  std::uint64_t applied = 0;
  std::uint64_t ackSeq = 0;
  std::uint64_t sinceSnapshot = 0;
  /// Per-seq results, seq > ackSeq (duplicate replies + replay source).
  std::map<std::uint64_t, PlanOutcome> outcomes;
  /// Accepted records newer than the last snapshot — re-journaled when the
  /// WAL rotates, so rotation never loses accepted-but-unplanned work.
  std::map<std::uint64_t, MutationRecord> tail;
  RecordLog wal;
  ipc::Fd walFd;
  std::string walPath;   ///< "" = volatile session
  std::string snapPath;
  /// Fencing epoch: bumped on promotion, shipped with every replicated
  /// record, persisted in the journal's open record and the snapshot.
  std::uint64_t epoch = 1;
  /// Standby replica (fed by replAppend, promoted on first client write).
  bool standby = false;
  /// A standby reported a newer epoch: this primary is deposed and must
  /// refuse client mutations (kStaleEpoch) instead of acking them.
  bool fenced = false;
  /// Live-telemetry freshness stamps ({} = never): last durable WAL
  /// append and last snapshot replace, reported as ages by fillStats().
  std::chrono::steady_clock::time_point lastWalAppend{};
  std::chrono::steady_clock::time_point lastSnapshot{};
  /// Last accepted replication frame from the current-or-newer epoch
  /// primary ({} = never) — the liveness evidence the --standby-grace
  /// promotion gate checks before a client contact may depose it.
  std::chrono::steady_clock::time_point lastReplContact{};
};

std::string SessionService::key(const std::string& tenant,
                                const std::string& name) {
  return tenant + "@" + name;
}

SessionService::SessionService(SessionServiceOptions options)
    : options_(std::move(options)) {
  if (!options_.stateDir.empty()) {
    fsio::makeDirs(options_.stateDir);
    std::set<std::string> bases;
    for (const std::string& file : fsio::listDir(options_.stateDir)) {
      for (const char* suffix : {".wal", ".snap"}) {
        if (file.size() > std::strlen(suffix) &&
            file.rfind(suffix) == file.size() - std::strlen(suffix))
          bases.insert(file.substr(0, file.size() - std::strlen(suffix)));
      }
    }
    for (const std::string& base : bases)
      if (recoverOne(base)) ++recovered_;
    if (recovered_ > 0)
      metrics::counter(metrics::kSessionsRecovered).add(recovered_);
  }
  const int executors = std::max(1, options_.executors);
  executors_.reserve(static_cast<std::size_t>(executors));
  for (int k = 0; k < executors; ++k)
    executors_.emplace_back([this] { executorLoop(); });
  if (!options_.replicas.empty()) {
    ReplicatorOptions repl;
    repl.replicas = options_.replicas;
    repl.ack = options_.replAck;
    replicator_ = std::make_unique<Replicator>(
        std::move(repl),
        [this](const std::string& tenant, const std::string& name) {
          return resyncBundle(tenant, name);
        },
        [this](const std::string& tenant, const std::string& name,
               std::uint64_t standbyEpoch) {
          fenceSession(tenant, name, standbyEpoch);
        });
  }
}

SessionService::~SessionService() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    work_.notify_all();
  }
  for (std::thread& t : executors_) t.join();
  executors_.clear();
  std::lock_guard lock(mutex_);
  stopped_ = true;
  applied_.notify_all();
}

void SessionService::executorLoop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    std::optional<FairScheduler::Next> next = scheduler_.next();
    if (!next.has_value()) {
      if (stopping_ && scheduler_.idle()) return;
      work_.wait(lock);
      continue;
    }
    lock.unlock();
    next->item.run();
    lock.lock();
    scheduler_.done(next->flow);
    // Finishing an item may make this flow's next item runnable, and the
    // exit condition may now hold for idle twins.
    work_.notify_all();
  }
}

void SessionService::applyOne(const SessionPtr& session,
                              const MutationRecord& rec) {
  static metrics::Histogram& planLatency =
      metrics::histogram(metrics::kSessionPlanLatency);
  static metrics::Counter& plans = metrics::counter(metrics::kSessionPlans);
  static metrics::Counter& compacted =
      metrics::counter(metrics::kSessionDeltasCompacted);
  PlanOutcome outcome;
  {
    metrics::ScopedLatency latency(planLatency);
    trace::ScopedSpan span("session.apply", "session",
                           {trace::Arg::num("seq", rec.seq),
                            trace::Arg::boolean("defer", rec.defer)});
    // The engine is only ever touched by the executor holding this flow's
    // in-flight slot, so planning runs without the store mutex.
    outcome = session->engine.apply(rec);
  }
  std::lock_guard lock(mutex_);
  if (outcome.planned) {
    plans.add();
    if (outcome.deltasRaw > outcome.deltasPlanned)
      compacted.add(
          static_cast<std::uint64_t>(outcome.deltasRaw - outcome.deltasPlanned));
  }
  session->applied = session->engine.lastApplied();
  session->outcomes[rec.seq] = std::move(outcome);
  ++session->sinceSnapshot;
  if (options_.snapshotEvery > 0 &&
      session->sinceSnapshot >= options_.snapshotEvery) {
    try {
      persistLocked(*session);
    } catch (const Error& error) {
      // Snapshot failure is degradable: the journal keeps growing and
      // recovery still works, just from further back.
      log(LogLevel::kWarn) << "session snapshot failed: " << error.what();
    }
  }
  applied_.notify_all();
}

void SessionService::rewriteWalLocked(Session& session) {
  // Rebuilds the journal from trusted in-memory state (header + open record
  // + every accepted record newer than the last snapshot) via atomic
  // replace, and reopens a clean append descriptor.  Used after rotation
  // and as self-heal whenever the append fd has been lost or latched dirty
  // (failed fsync, injected power loss): the WAL's content is exactly
  // header+open+tail, so a full rewrite is always equivalent to the log the
  // torn tail was dropped from.
  RecordLog fresh(kWalHeader);
  std::string walBytes = fresh.headerLine();
  walBytes += fresh.appendLine(
      openPayload(session.engine.config(), session.epoch, session.standby));
  for (const auto& [seq, rec] : session.tail)
    walBytes += fresh.appendLine(mutPayload(rec));
  session.walFd.reset();
  fsio::writeFileDurable(session.walPath, walBytes);
  session.walFd = fsio::openAppend(session.walPath);
  session.wal = std::move(fresh);
}

void SessionService::appendWalLocked(Session& session,
                                     const MutationRecord& rec) {
  // WAL rule: the record is on disk before any work is scheduled and
  // before any reply — a crash after this point must replay it.
  //
  // A session with a journal path but no usable descriptor (a previous
  // rotation or append failed mid-way) must NOT silently skip the disk
  // write — that would acknowledge the mutation with no durability.
  // Rewrite the journal from trusted state first; if that fails too, the
  // error propagates and the mutation is refused un-acked.
  if (!session.walPath.empty() && !session.walFd.valid())
    rewriteWalLocked(session);
  if (session.walFd.valid()) {
    const std::string line = session.wal.appendLine(mutPayload(rec));
    try {
      fsio::appendDurable(session.walFd.get(), session.walPath, line);
    } catch (...) {
      // The on-disk tail may be torn and the fd may be latched dirty:
      // drop the descriptor so the next append rewrites the whole journal
      // from memory instead of appending past a tear.
      session.walFd.reset();
      throw;
    }
  }
  session.lastWalAppend = std::chrono::steady_clock::now();
}

void SessionService::persistLocked(Session& session) {
  if (session.snapPath.empty()) return;
  static metrics::Counter& snapshots =
      metrics::counter(metrics::kSessionSnapshots);
  ipc::MessageWriter writer;
  session.engine.encodeSnapshot(writer);
  writer.u64(session.ackSeq);
  writer.u32(static_cast<std::uint32_t>(session.outcomes.size()));
  for (const auto& [seq, outcome] : session.outcomes) {
    writer.u64(seq);
    writer.u32(outcome.planned ? 1 : 0);
    writer.u32(outcome.failed ? 1 : 0);
    writer.str(outcome.error);
    writer.str(outcome.program);
    writer.u64(outcome.compactedFrom);
    writer.u32(static_cast<std::uint32_t>(outcome.deltasPlanned));
    writer.u32(static_cast<std::uint32_t>(outcome.deltasRaw));
  }
  // Replication metadata, appended so pre-replication snapshots (which
  // simply end here) still decode: epoch 1, primary.
  writer.u64(session.epoch);
  writer.u32(session.standby ? 1 : 0);
  std::string body = writer.take();
  ipc::MessageWriter checksum;
  checksum.u64(fnv1a64(body));
  body += checksum.take();
  // Snapshot first (atomic replace), journal rotation second: a crash
  // between the two leaves a snapshot plus a journal whose early records
  // it already covers — replay skips them by sequence number.
  fsio::writeFileDurable(session.snapPath, body);
  snapshots.add();
  session.lastSnapshot = std::chrono::steady_clock::now();

  const std::uint64_t covered = session.engine.lastApplied();
  session.tail.erase(session.tail.begin(),
                     session.tail.upper_bound(covered));
  // If the rotation fails mid-way the descriptor stays invalid and the
  // next appendWalLocked rewrites the journal before acking anything — a
  // failed rotation must never silently disable durability.
  rewriteWalLocked(session);
  session.sinceSnapshot = 0;
}

bool SessionService::recoverOne(const std::string& base) {
  const std::string walPath = options_.stateDir + "/" + base + ".wal";
  const std::string snapPath = options_.stateDir + "/" + base + ".snap";
  static metrics::Counter& quarantinedCounter =
      metrics::counter(metrics::kSessionsQuarantined);
  auto quarantine = [&](const std::string& path) {
    try {
      fsio::renameDurable(path, path + ".corrupt");
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "cannot quarantine '" << path
                           << "': " << error.what();
    }
    ++quarantined_;
    quarantinedCounter.add();
  };

  // Snapshot (if any): full engine state + unacked outcomes.
  std::optional<SessionEngine> engine;
  std::uint64_t ackSeq = 0;
  std::uint64_t snapEpoch = 1;
  bool snapStandby = false;
  std::map<std::uint64_t, PlanOutcome> outcomes;
  if (const auto bytes = fsio::readFileIfExists(snapPath)) {
    try {
      if (bytes->size() < 8) throw ipc::IpcError("snapshot too short");
      const std::string_view body(bytes->data(), bytes->size() - 8);
      ipc::MessageReader sumReader(
          std::string_view(bytes->data() + body.size(), 8));
      if (sumReader.u64() != fnv1a64(body))
        throw ipc::IpcError("snapshot checksum mismatch");
      ipc::MessageReader reader(body);
      engine.emplace(SessionEngine::decodeSnapshot(reader));
      ackSeq = reader.u64();
      const std::uint32_t count = reader.u32();
      for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint64_t seq = reader.u64();
        PlanOutcome outcome;
        outcome.planned = reader.u32() != 0;
        outcome.failed = reader.u32() != 0;
        outcome.error = reader.str();
        outcome.program = reader.str();
        outcome.compactedFrom = reader.u64();
        outcome.deltasPlanned = static_cast<int>(reader.u32());
        outcome.deltasRaw = static_cast<int>(reader.u32());
        outcomes.emplace(seq, std::move(outcome));
      }
      // Pre-replication snapshots end here; newer ones append the fencing
      // epoch and the standby role.
      if (!reader.atEnd()) {
        snapEpoch = std::max<std::uint64_t>(1, reader.u64());
        snapStandby = reader.u32() != 0;
      }
      reader.expectEnd();
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "corrupt session snapshot '" << snapPath
                           << "': " << error.what();
      quarantine(snapPath);
      engine.reset();
      ackSeq = 0;
      snapEpoch = 1;
      snapStandby = false;
      outcomes.clear();
    }
  }

  // Journal: open record + accepted mutations since the last rotation.
  std::vector<std::string> records;
  bool walValid = false;
  if (const auto bytes = fsio::readFileIfExists(walPath)) {
    try {
      RecordLog::Parsed parsed = RecordLog::parse(kWalHeader, *bytes);
      records = std::move(parsed.records);
      walValid = true;  // a torn tail was dropped, the prefix is trusted
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "corrupt session journal '" << walPath
                           << "': " << error.what();
      quarantine(walPath);
    }
  }
  SessionConfig walConfig;
  std::uint64_t walEpoch = 1;
  bool walStandby = false;
  if (walValid &&
      (records.empty() ||
       !parseOpenPayload(records[0], walConfig, &walEpoch, &walStandby))) {
    log(LogLevel::kWarn) << "session journal '" << walPath
                         << "' has no valid open record";
    quarantine(walPath);
    walValid = false;
    records.clear();
  }
  if (!engine.has_value() && !walValid) return false;
  if (engine.has_value() && walValid && engine->config() != walConfig) {
    // A snapshot that does not belong to this journal (stale leftover):
    // the journal is the source of truth from birth, the snapshot is not.
    log(LogLevel::kWarn) << "session snapshot '" << snapPath
                         << "' does not match its journal; rebuilding from "
                            "the journal";
    quarantine(snapPath);
    engine.reset();
    ackSeq = 0;
    snapEpoch = 1;
    snapStandby = false;
    outcomes.clear();
  }
  const bool snapValid = engine.has_value();
  if (!engine.has_value()) engine.emplace(SessionEngine(walConfig));

  auto session = std::make_shared<Session>(std::move(*engine));
  session->ackSeq = ackSeq;
  session->outcomes = std::move(outcomes);
  // The journal's open record is rewritten on every epoch change, the
  // snapshot only every snapshotEvery records — take the newer of the two
  // (max is safe: epochs only ever grow) and the role that came with it.
  session->epoch = std::max(walValid ? walEpoch : 1, snapValid ? snapEpoch : 1);
  session->standby = walValid && walEpoch >= snapEpoch ? walStandby
                     : snapValid                       ? snapStandby
                                                       : walStandby;
  for (std::size_t k = walValid ? 1 : records.size(); k < records.size();
       ++k) {
    MutationRecord rec;
    if (!parseMutPayload(records[k], rec)) {
      log(LogLevel::kWarn) << "session journal '" << walPath
                           << "': unparseable record " << k;
      break;
    }
    if (rec.seq <= session->engine.lastApplied()) continue;  // in snapshot
    if (rec.seq != session->engine.lastApplied() + 1) break;  // hole
    session->outcomes[rec.seq] = session->engine.apply(rec);
    session->tail.emplace(rec.seq, rec);
  }
  session->applied = session->lastAccepted = session->engine.lastApplied();
  session->outcomes.erase(session->outcomes.begin(),
                          session->outcomes.upper_bound(session->ackSeq));

  // Rewrite the journal fresh (drops torn tails and snapshot-covered
  // records) and reopen it for appending.  A rewrite failure must NOT drop
  // the recovered session: the old journal is still intact on disk
  // (durable replace is atomic), so the session is kept with an invalid
  // descriptor and appendWalLocked rewrites the journal before acking the
  // next mutation.  Dropping it here would let a later open() create a
  // fresh session over the old journal — destroying acknowledged history
  // on nothing more than a transient write failure.
  session->walPath = walPath;
  session->snapPath = snapPath;
  RecordLog fresh(kWalHeader);
  std::string walBytes = fresh.headerLine();
  walBytes += fresh.appendLine(openPayload(session->engine.config(),
                                           session->epoch, session->standby));
  for (const auto& [seq, rec] : session->tail)
    walBytes += fresh.appendLine(mutPayload(rec));
  try {
    fsio::writeFileDurable(walPath, walBytes);
    session->walFd = fsio::openAppend(walPath);
    session->wal = std::move(fresh);
  } catch (const Error& error) {
    log(LogLevel::kWarn) << "cannot rewrite session journal '" << walPath
                         << "' (recovered state kept, rewrite deferred): "
                         << error.what();
    session->walFd.reset();
  }
  sessions_.emplace(key(session->engine.config().tenant,
                        session->engine.config().name),
                    std::move(session));
  return true;
}

SessionOpenResponse SessionService::open(const SessionOpenRequest& request) {
  static metrics::Counter& opened = metrics::counter(metrics::kSessionOpened);
  static metrics::Counter& resumed =
      metrics::counter(metrics::kSessionResumed);
  SessionOpenResponse response;
  if (!validSessionName(request.tenant) || !validSessionName(request.name)) {
    response.status = SessionStatus::kFailed;
    response.error = "tenant/session names must be 1-64 chars of "
                     "[A-Za-z0-9._-]";
    return response;
  }
  SessionConfig config;
  config.tenant = request.tenant;
  config.name = request.name;
  config.priority = static_cast<int>(request.priority);
  config.weight = static_cast<double>(std::max<std::uint32_t>(1, request.weight));
  config.planner = request.planner;
  config.stateCount = request.stateCount;
  config.inputCount = request.inputCount;
  config.outputCount = request.outputCount;
  config.seed = request.seed;

  std::unique_lock lock(mutex_);
  const std::string k = key(request.tenant, request.name);
  const auto it = sessions_.find(k);
  if (it != sessions_.end()) {
    if (!request.resume) {
      response.status = SessionStatus::kFailed;
      response.error = "session already exists (use resume)";
    } else if (it->second->engine.config() != config) {
      response.status = SessionStatus::kFailed;
      response.error = "session config mismatch on resume";
    } else {
      SessionPtr session = it->second;
      // A client resuming against a standby IS the failover signal: the
      // primary is gone and the stream re-resolved here.  Promote before
      // reporting the high-water mark the client will resume from —
      // unless the standby heard from its primary inside the grace window
      // (a healthy primary must not be deposed by a client-side blip).
      if (session->standby) {
        if (!promotionDueLocked(*session)) {
          response.status = SessionStatus::kFailed;
          response.error =
              "session is a standby still replicating from a live primary "
              "(within --standby-grace); resume against the primary";
          return response;
        }
        promoteLocked(lock, *session, k);
        // The promotion wait released mutex_: the entry may have been
        // closed (or closed and reopened) meanwhile.
        if (!stillOpenLocked(k, session)) {
          response.status = SessionStatus::kNotFound;
          response.error = "session closed during promotion";
          return response;
        }
      }
      resumed.add();
      response.status = SessionStatus::kOk;
      response.lastApplied = session->lastAccepted;
    }
    return response;
  }
  if (draining_) {
    response.status = SessionStatus::kDraining;
    response.error = "daemon is draining";
    return response;
  }
  if (sessions_.size() >= options_.maxSessions) {
    response.status = SessionStatus::kResourceExhausted;
    response.error = "session limit (" +
                     std::to_string(options_.maxSessions) + ") reached";
    response.retryAfterMs = 1000;
    return response;
  }
  try {
    plannerFn(config.planner);  // validate the name before committing
    auto session = std::make_shared<Session>(SessionEngine(config));
    if (!options_.stateDir.empty()) {
      session->walPath = options_.stateDir + "/" + k + ".wal";
      session->snapPath = options_.stateDir + "/" + k + ".snap";
      // A stale snapshot under this name (crash mid-close) must not be
      // mixed with the fresh journal on a later recovery.
      fsio::removeFileDurable(session->snapPath);
      const std::string walBytes =
          session->wal.headerLine() +
          session->wal.appendLine(openPayload(config));
      fsio::writeFileDurable(session->walPath, walBytes);
      session->walFd = fsio::openAppend(session->walPath);
    }
    sessions_.emplace(k, std::move(session));
    opened.add();
    response.status = SessionStatus::kOk;
    response.lastApplied = 0;
  } catch (const Error& error) {
    response.status = SessionStatus::kFailed;
    response.error = error.what();
  }
  return response;
}

SessionMutateResponse SessionService::answerFromHistory(
    Session& session, std::uint64_t seq) const {
  SessionMutateResponse response;
  response.seq = seq;
  const auto it = session.outcomes.find(seq);
  if (it == session.outcomes.end()) {
    response.status = SessionStatus::kFailed;
    response.error =
        seq <= session.ackSeq
            ? "transcript entry already acknowledged and trimmed"
            : "mutation not applied (service stopped)";
    return response;
  }
  const PlanOutcome& outcome = it->second;
  if (outcome.failed) {
    response.status = SessionStatus::kFailed;
    response.error = outcome.error;
  } else if (outcome.planned) {
    response.status = SessionStatus::kOk;
    response.program = outcome.program;
    response.compactedFrom = outcome.compactedFrom;
    response.deltasPlanned =
        static_cast<std::uint32_t>(outcome.deltasPlanned);
    response.deltasRaw = static_cast<std::uint32_t>(outcome.deltasRaw);
  } else {
    response.status = SessionStatus::kAccepted;
  }
  return response;
}

SessionMutateResponse SessionService::mutate(
    const SessionMutateRequest& request) {
  static metrics::Counter& accepted =
      metrics::counter(metrics::kSessionMutationsAccepted);
  static metrics::Counter& rejected =
      metrics::counter(metrics::kSessionMutationsRejected);
  static metrics::Histogram& mutateLatency =
      metrics::histogram(metrics::kSessionMutateLatency);
  static metrics::RollingHistogram& mutateWindow =
      metrics::rolling(metrics::kSessionMutateWindow);
  metrics::ScopedLatency latency(mutateLatency);
  metrics::ScopedWindowLatency windowLatency(mutateWindow);
  // Adopt the frame's trace context so the executor-side apply span chains
  // back to the remote caller.  The context never enters the journal:
  // replay after recovery owes nobody a trace.
  trace::ContextScope contextScope(request.context);
  trace::ScopedSpan mutateSpan(
      "session.mutate_request", "session",
      {trace::Arg::str("tenant", request.tenant),
       trace::Arg::num("seq", request.seq)});

  SessionMutateResponse response;
  response.seq = request.seq;
  std::unique_lock lock(mutex_);
  const std::string k = key(request.tenant, request.name);
  const auto it = sessions_.find(k);
  if (it == sessions_.end()) {
    response.status = SessionStatus::kNotFound;
    response.error = "unknown session " + request.tenant + "/" + request.name;
    return response;
  }
  SessionPtr session = it->second;
  // A client write reaching a standby is client-transparent failover in
  // action: the stream re-resolved here because the primary died — unless
  // the standby heard from its primary inside the grace window.
  if (session->standby) {
    if (!promotionDueLocked(*session)) {
      response.status = SessionStatus::kFailed;
      response.error =
          "session is a standby still replicating from a live primary "
          "(within --standby-grace); mutate against the primary";
      return response;
    }
    promoteLocked(lock, *session, k);
    // The promotion wait released mutex_: `it` may now dangle and the key
    // may map to nothing (close) or to a different session (close+reopen).
    if (!stillOpenLocked(k, session)) {
      response.status = SessionStatus::kNotFound;
      response.error = "session closed during promotion";
      return response;
    }
  }
  if (session->fenced) {
    response.status = SessionStatus::kStaleEpoch;
    response.error =
        "session fenced: a standby holds a newer epoch (deposed primary)";
    return response;
  }
  if (request.ackSeq > session->ackSeq) {
    session->ackSeq = std::min(request.ackSeq, session->applied);
    session->outcomes.erase(
        session->outcomes.begin(),
        session->outcomes.upper_bound(session->ackSeq));
  }
  if (request.seq == 0 || request.seq > session->lastAccepted + 1) {
    response.status = SessionStatus::kBadSequence;
    response.error = "expected seq " +
                     std::to_string(session->lastAccepted + 1) + ", got " +
                     std::to_string(request.seq);
    return response;
  }
  if (request.seq <= session->lastAccepted) {
    // A resent duplicate (retry after a lost reply): wait for its apply
    // and answer from the transcript — never re-journal, never re-plan.
    applied_.wait(lock, [&] {
      return session->applied >= request.seq || stopped_;
    });
    return answerFromHistory(*session, request.seq);
  }
  if (draining_) {
    response.status = SessionStatus::kDraining;
    response.error = "daemon is draining";
    return response;
  }
  auto bucket = buckets_.find(request.tenant);
  if (bucket == buckets_.end())
    bucket = buckets_
                 .emplace(request.tenant,
                          TokenBucket(options_.tenantRate,
                                      options_.tenantBurst))
                 .first;
  const auto now = TokenBucket::Clock::now();
  if (!bucket->second.tryTake(1.0, now)) {
    rejected.add();
    response.status = SessionStatus::kResourceExhausted;
    response.error =
        "tenant '" + request.tenant + "' is over its mutation rate";
    response.retryAfterMs =
        std::max<std::int64_t>(1, bucket->second.msUntil(1.0, now));
    return response;
  }
  MutationRecord rec;
  rec.seq = request.seq;
  rec.deltaCount = request.deltaCount;
  rec.newStateCount = request.newStateCount;
  rec.mutationSeed = request.mutationSeed;
  rec.defer = request.defer;
  if (replicator_ && replicator_->ackMode() == ReplAck::kQuorum) {
    // Quorum rule: every standby journals the record durably BEFORE the
    // local append and long before the client ack.  A refusal here leaves
    // nothing local — the client retries and no acked mutation can exist
    // that the standbys lack.  Ship without the store mutex (the ship
    // blocks on standby fsyncs) and re-validate after relocking.
    const SessionReplAppendRequest ship =
        replRequestFor(session->engine.config(), session->epoch, rec);
    lock.unlock();
    const ShipResult shipped = replicator_->shipSync(ship);
    lock.lock();
    // Identity check, not just presence: a close+reopen race through the
    // unlocked window leaves the key mapping to a *different* session —
    // this record must not be journaled into the namesake's transcript.
    if (!stillOpenLocked(k, session)) {
      response.status = SessionStatus::kNotFound;
      response.error = "session closed during replication";
      return response;
    }
    if (shipped.staleEpoch || session->fenced) {
      session->fenced = true;
      rejected.add();
      response.status = SessionStatus::kStaleEpoch;
      response.error =
          "session fenced: a standby holds a newer epoch (deposed primary)";
      return response;
    }
    if (!shipped.ok) {
      rejected.add();
      response.status = SessionStatus::kFailed;
      response.error = "replication failed: " + shipped.error;
      return response;
    }
    if (request.seq <= session->lastAccepted) {
      // A retry raced us through the unlocked window; its journaled copy
      // wins and this one answers from the transcript like any duplicate.
      applied_.wait(lock, [&] {
        return session->applied >= request.seq || stopped_;
      });
      return answerFromHistory(*session, request.seq);
    }
    if (request.seq != session->lastAccepted + 1) {
      response.status = SessionStatus::kBadSequence;
      response.error = "expected seq " +
                       std::to_string(session->lastAccepted + 1) + ", got " +
                       std::to_string(request.seq);
      return response;
    }
  }
  try {
    appendWalLocked(*session, rec);
  } catch (const Error& error) {
    response.status = SessionStatus::kFailed;
    response.error = std::string("journal append failed: ") + error.what();
    return response;
  }
  session->lastAccepted = rec.seq;
  session->tail.emplace(rec.seq, rec);
  accepted.add();
  if (replicator_ && replicator_->ackMode() == ReplAck::kAsync) {
    // Async rule: local durability first, ack immediately, ship from the
    // bounded per-replica queue.  A refused enqueue (queue full) becomes a
    // standby-side sequence gap the next successful ship resyncs.
    replicator_->shipAsync(
        replRequestFor(session->engine.config(), session->epoch, rec));
  }
  const SessionConfig& config = session->engine.config();
  // Hand the mutate span's context to the executor thread so the apply
  // span parents under it (and, transitively, under the remote caller).
  scheduler_.enqueue(k, config.priority, config.weight,
                     {[this, session, rec,
                       context = trace::currentContext()] {
                        trace::ContextScope scope(context);
                        applyOne(session, rec);
                      },
                      1.0 + static_cast<double>(rec.deltaCount)});
  work_.notify_all();
  applied_.wait(lock,
                [&] { return session->applied >= rec.seq || stopped_; });
  return answerFromHistory(*session, rec.seq);
}

SessionReplayResponse SessionService::replay(
    const SessionReplayRequest& request) {
  SessionReplayResponse response;
  std::unique_lock lock(mutex_);
  const auto it = sessions_.find(key(request.tenant, request.name));
  if (it == sessions_.end()) {
    response.status = SessionStatus::kNotFound;
    response.error = "unknown session " + request.tenant + "/" + request.name;
    return response;
  }
  SessionPtr session = it->second;
  const std::uint64_t hi =
      request.toSeq == 0
          ? session->lastAccepted
          : std::min(request.toSeq, session->lastAccepted);
  applied_.wait(lock,
                [&] { return session->applied >= hi || stopped_; });
  if (request.fromSeq <= session->ackSeq && session->ackSeq > 0) {
    response.status = SessionStatus::kFailed;
    response.error = "entries up to seq " +
                     std::to_string(session->ackSeq) +
                     " were acknowledged and trimmed";
    return response;
  }
  for (auto entry = session->outcomes.lower_bound(request.fromSeq);
       entry != session->outcomes.end() && entry->first <= hi; ++entry) {
    if (!entry->second.planned) continue;
    SessionReplayResponse::Entry e;
    e.seq = entry->first;
    e.program = entry->second.program;
    response.entries.push_back(std::move(e));
  }
  response.status = SessionStatus::kOk;
  return response;
}

SessionCloseResponse SessionService::close(const SessionCloseRequest& request) {
  SessionCloseResponse response;
  std::unique_lock lock(mutex_);
  const auto it = sessions_.find(key(request.tenant, request.name));
  if (it == sessions_.end()) {
    response.status = SessionStatus::kNotFound;
    response.error = "unknown session " + request.tenant + "/" + request.name;
    return response;
  }
  SessionPtr session = it->second;
  applied_.wait(lock, [&] {
    return session->applied >= session->lastAccepted || stopped_;
  });
  response.mutationsApplied = session->applied;
  response.plans = session->engine.planCount();
  session->walFd.reset();
  if (!session->walPath.empty()) {
    try {
      fsio::removeFileDurable(session->walPath);
      fsio::removeFileDurable(session->snapPath);
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "cannot remove session files: "
                           << error.what();
    }
  }
  sessions_.erase(key(request.tenant, request.name));
  response.status = SessionStatus::kOk;
  return response;
}

// --- Replication plane ----------------------------------------------------

SessionReplAppendResponse SessionService::replAppend(
    const SessionReplAppendRequest& request) {
  static metrics::Counter& staleRejected =
      metrics::counter(metrics::kServiceStaleEpochRejected);
  SessionReplAppendResponse response;
  SessionConfig config;
  config.tenant = request.tenant;
  config.name = request.name;
  config.priority = static_cast<int>(request.priority);
  config.weight =
      static_cast<double>(std::max<std::uint32_t>(1, request.weight));
  config.planner = request.planner;
  config.stateCount = request.stateCount;
  config.inputCount = request.inputCount;
  config.outputCount = request.outputCount;
  config.seed = request.seed;
  if (!validSessionName(config.tenant) || !validSessionName(config.name)) {
    response.status = SessionStatus::kFailed;
    response.error = "tenant/session names must be 1-64 chars of "
                     "[A-Za-z0-9._-]";
    return response;
  }
  std::unique_lock lock(mutex_);
  const std::string k = key(request.tenant, request.name);
  auto it = sessions_.find(k);
  if (it == sessions_.end()) {
    // First contact from a primary: materialize the standby session from
    // the config the frame carries (no separate open exchange).
    if (draining_) {
      response.status = SessionStatus::kDraining;
      response.error = "daemon is draining";
      return response;
    }
    if (sessions_.size() >= options_.maxSessions) {
      response.status = SessionStatus::kResourceExhausted;
      response.error = "session limit (" +
                       std::to_string(options_.maxSessions) + ") reached";
      return response;
    }
    try {
      plannerFn(config.planner);
      auto session = std::make_shared<Session>(SessionEngine(config));
      session->standby = true;
      session->epoch = std::max<std::uint64_t>(1, request.epoch);
      if (!options_.stateDir.empty()) {
        session->walPath = options_.stateDir + "/" + k + ".wal";
        session->snapPath = options_.stateDir + "/" + k + ".snap";
        fsio::removeFileDurable(session->snapPath);
        const std::string walBytes =
            session->wal.headerLine() +
            session->wal.appendLine(
                openPayload(config, session->epoch, true));
        fsio::writeFileDurable(session->walPath, walBytes);
        session->walFd = fsio::openAppend(session->walPath);
      }
      it = sessions_.emplace(k, std::move(session)).first;
    } catch (const Error& error) {
      response.status = SessionStatus::kFailed;
      response.error = error.what();
      return response;
    }
  }
  SessionPtr session = it->second;
  response.epoch = session->epoch;
  response.lastAccepted = session->lastAccepted;
  // The fence: a frame from an older epoch — or from a twin primary at our
  // own epoch — is a deposed primary still streaming.  Refuse and count.
  if (request.epoch < session->epoch ||
      (request.epoch == session->epoch && !session->standby)) {
    staleRejected.add();
    response.status = SessionStatus::kStaleEpoch;
    response.error = "stale epoch " + std::to_string(request.epoch) +
                     " (current " + std::to_string(session->epoch) + ")";
    log(LogLevel::kWarn) << "session " << k
                         << " refused stale-epoch append (epoch "
                         << request.epoch << ", current " << session->epoch
                         << ")";
    return response;
  }
  if (session->engine.config() != config) {
    response.status = SessionStatus::kFailed;
    response.error = "replication config mismatch";
    return response;
  }
  if (request.epoch > session->epoch) {
    // A newer primary exists.  Adopt its epoch; a session that thought it
    // was primary is demoted back to standby (the old-primary-rejoins-as-
    // standby leg of the failover matrix).  The accepted suffix is NOT
    // kept: records past the new primary's promotion point share sequence
    // numbers with genuinely different records (a deposed primary's
    // async-acked-but-unshipped run, or a quorum ship that reached us for
    // a mutation the lost primary never acked), and nothing on the wire
    // proves record identity by seq alone — absorbing the new primary's
    // ships as "duplicates" would let phantom records survive into a
    // later promotion.  Discard the replay state and report a gap so the
    // new primary resyncs us from its snapshot + tail.
    if (!session->standby)
      log(LogLevel::kWarn) << "session " << k << " demoted to standby (epoch "
                           << session->epoch << " -> " << request.epoch
                           << ")";
    // Quiesce before discarding: executors touch the engine without the
    // store mutex.  The wait releases mutex_, so re-validate the entry.
    applied_.wait(lock, [&] {
      return session->applied >= session->lastAccepted || stopped_;
    });
    if (!stillOpenLocked(k, session)) {
      response.status = SessionStatus::kNotFound;
      response.error = "session closed during epoch adoption";
      return response;
    }
    const SessionConfig keep = session->engine.config();
    session->engine = SessionEngine(keep);
    session->outcomes.clear();
    session->tail.clear();
    session->lastAccepted = 0;
    session->applied = 0;
    session->ackSeq = 0;
    session->sinceSnapshot = 0;
    session->epoch = request.epoch;
    session->standby = true;
    session->fenced = false;
    response.epoch = session->epoch;
    response.lastAccepted = 0;
    try {
      // The on-disk snapshot still holds the discarded suffix; a crash
      // before the resync install must not resurrect it on recovery.
      if (!session->snapPath.empty())
        fsio::removeFileDurable(session->snapPath);
      if (!session->walPath.empty()) rewriteWalLocked(*session);
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "cannot persist epoch adoption for " << k
                           << ": " << error.what();
    }
  }
  session->lastReplContact = std::chrono::steady_clock::now();
  if (request.seq <= session->lastAccepted) {
    response.status = SessionStatus::kOk;  // duplicate ship: idempotent
    return response;
  }
  if (request.seq != session->lastAccepted + 1) {
    response.status = SessionStatus::kBadSequence;  // gap: primary resyncs
    response.error = "expected seq " +
                     std::to_string(session->lastAccepted + 1) + ", got " +
                     std::to_string(request.seq);
    return response;
  }
  MutationRecord rec;
  rec.seq = request.seq;
  rec.deltaCount = request.deltaCount;
  rec.newStateCount = request.newStateCount;
  rec.mutationSeed = request.mutationSeed;
  rec.defer = request.defer;
  try {
    appendWalLocked(*session, rec);
  } catch (const Error& error) {
    response.status = SessionStatus::kFailed;
    response.error = std::string("journal append failed: ") + error.what();
    return response;
  }
  session->lastAccepted = rec.seq;
  session->tail.emplace(rec.seq, rec);
  // Warm replay: schedule the apply like a client mutation but do NOT wait
  // for it — the primary's quorum needs the fsync, not the plan.  The
  // continuously-applied engine is what makes promotion O(tail).  (`k`,
  // not `it->first`: the epoch-adoption quiesce may have invalidated it.)
  const SessionConfig& cfg = session->engine.config();
  scheduler_.enqueue(k, cfg.priority, cfg.weight,
                     {[this, session, rec] { applyOne(session, rec); },
                      1.0 + static_cast<double>(rec.deltaCount)});
  work_.notify_all();
  response.lastAccepted = session->lastAccepted;
  response.status = SessionStatus::kOk;
  return response;
}

SessionReplSnapshotResponse SessionService::replInstall(
    const SessionReplSnapshotRequest& request) {
  static metrics::Counter& staleRejected =
      metrics::counter(metrics::kServiceStaleEpochRejected);
  SessionReplSnapshotResponse response;
  // Verify and decode before touching the store: the bytes are the
  // primary's .snap file verbatim, checksum trailer included.
  std::optional<SessionEngine> engine;
  std::uint64_t ackSeq = 0;
  std::map<std::uint64_t, PlanOutcome> outcomes;
  try {
    const std::string& bytes = request.snapshot;
    if (bytes.size() < 8) throw ipc::IpcError("snapshot too short");
    const std::string_view body(bytes.data(), bytes.size() - 8);
    ipc::MessageReader sumReader(
        std::string_view(bytes.data() + body.size(), 8));
    if (sumReader.u64() != fnv1a64(body))
      throw ipc::IpcError("snapshot checksum mismatch");
    ipc::MessageReader reader(body);
    engine.emplace(SessionEngine::decodeSnapshot(reader));
    ackSeq = reader.u64();
    const std::uint32_t count = reader.u32();
    for (std::uint32_t n = 0; n < count; ++n) {
      const std::uint64_t seq = reader.u64();
      PlanOutcome outcome;
      outcome.planned = reader.u32() != 0;
      outcome.failed = reader.u32() != 0;
      outcome.error = reader.str();
      outcome.program = reader.str();
      outcome.compactedFrom = reader.u64();
      outcome.deltasPlanned = static_cast<int>(reader.u32());
      outcome.deltasRaw = static_cast<int>(reader.u32());
      outcomes.emplace(seq, std::move(outcome));
    }
    if (!reader.atEnd()) {
      reader.u64();  // the primary's epoch at snapshot time; the frame's
      reader.u32();  // epoch governs, and our role stays standby
    }
    reader.expectEnd();
  } catch (const Error& error) {
    response.status = SessionStatus::kFailed;
    response.error = std::string("bad snapshot: ") + error.what();
    return response;
  }
  std::unique_lock lock(mutex_);
  const std::string k = key(request.tenant, request.name);
  auto it = sessions_.find(k);
  if (it != sessions_.end()) {
    SessionPtr session = it->second;
    if (request.epoch < session->epoch ||
        (request.epoch == session->epoch && !session->standby)) {
      staleRejected.add();
      response.status = SessionStatus::kStaleEpoch;
      response.error = "stale epoch " + std::to_string(request.epoch) +
                       " (current " + std::to_string(session->epoch) + ")";
      response.epoch = session->epoch;
      response.lastAccepted = session->lastAccepted;
      return response;
    }
    if (engine->lastApplied() <= session->lastAccepted &&
        request.epoch == session->epoch) {
      // We already hold everything this snapshot covers: no-op.
      response.status = SessionStatus::kOk;
      response.epoch = session->epoch;
      response.lastAccepted = session->lastAccepted;
      return response;
    }
    // Quiesce: no executor may hold the engine while we swap it out.  The
    // wait releases mutex_, so re-validate the entry before writing into
    // it (a concurrent close() may have erased — or close+reopen
    // replaced — the session meanwhile).
    applied_.wait(lock, [&] {
      return session->applied >= session->lastAccepted || stopped_;
    });
    if (!stillOpenLocked(k, session)) {
      response.status = SessionStatus::kNotFound;
      response.error = "session closed during snapshot install";
      return response;
    }
    session->engine = std::move(*engine);
    session->outcomes = std::move(outcomes);
    session->ackSeq = ackSeq;
    session->applied = session->lastAccepted = session->engine.lastApplied();
    session->tail.clear();
    session->sinceSnapshot = 0;
    session->epoch = std::max(session->epoch, request.epoch);
    session->standby = true;
    session->fenced = false;
    session->lastReplContact = std::chrono::steady_clock::now();
    try {
      if (!session->snapPath.empty()) {
        fsio::writeFileDurable(session->snapPath, request.snapshot);
        session->lastSnapshot = std::chrono::steady_clock::now();
      }
      if (!session->walPath.empty()) rewriteWalLocked(*session);
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "cannot persist installed snapshot for " << k
                           << ": " << error.what();
      session->walFd.reset();
    }
    applied_.notify_all();
    response.status = SessionStatus::kOk;
    response.epoch = session->epoch;
    response.lastAccepted = session->lastAccepted;
    return response;
  }
  if (draining_) {
    response.status = SessionStatus::kDraining;
    response.error = "daemon is draining";
    return response;
  }
  if (sessions_.size() >= options_.maxSessions) {
    response.status = SessionStatus::kResourceExhausted;
    response.error = "session limit (" +
                     std::to_string(options_.maxSessions) + ") reached";
    return response;
  }
  auto session = std::make_shared<Session>(std::move(*engine));
  session->outcomes = std::move(outcomes);
  session->ackSeq = ackSeq;
  session->applied = session->lastAccepted = session->engine.lastApplied();
  session->standby = true;
  session->epoch = std::max<std::uint64_t>(1, request.epoch);
  session->lastReplContact = std::chrono::steady_clock::now();
  if (!options_.stateDir.empty()) {
    session->walPath = options_.stateDir + "/" + k + ".wal";
    session->snapPath = options_.stateDir + "/" + k + ".snap";
    try {
      fsio::writeFileDurable(session->snapPath, request.snapshot);
      session->lastSnapshot = std::chrono::steady_clock::now();
      rewriteWalLocked(*session);
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "cannot persist installed snapshot for " << k
                           << ": " << error.what();
      session->walFd.reset();
    }
  }
  response.epoch = session->epoch;
  response.lastAccepted = session->lastAccepted;
  sessions_.emplace(k, std::move(session));
  response.status = SessionStatus::kOk;
  return response;
}

SessionStatusResponse SessionService::status(
    const SessionStatusRequest& request) {
  SessionStatusResponse response;
  std::lock_guard lock(mutex_);
  const auto it = sessions_.find(key(request.tenant, request.name));
  if (it == sessions_.end()) {
    response.status = SessionStatus::kNotFound;
    response.error = "unknown session " + request.tenant + "/" + request.name;
    return response;
  }
  const Session& session = *it->second;
  response.status = SessionStatus::kOk;
  response.role = session.standby ? "standby" : "primary";
  response.epoch = session.epoch;
  response.lastAccepted = session.lastAccepted;
  response.applied = session.applied;
  return response;
}

void SessionService::promoteLocked(std::unique_lock<std::mutex>& lock,
                                   Session& session,
                                   std::string sessionKey) {
  // O(tail) by construction: the standby has been warm-replaying every
  // shipped record continuously, so only the records still queued behind
  // the executors remain to apply.  (Callers hold a SessionPtr, so the
  // session outlives the unlocked wait; sessionKey is a by-value copy
  // because a map-node reference would dangle if a concurrent close()
  // erased the entry while the lock was dropped.)
  applied_.wait(lock, [&] {
    return session.applied >= session.lastAccepted || stopped_;
  });
  session.standby = false;
  session.fenced = false;
  session.epoch += 1;
  metrics::counter(metrics::kServiceFailovers).add();
  log(LogLevel::kWarn) << "session " << sessionKey
                       << " promoted to primary (epoch " << session.epoch
                       << ")";
  // Persist the new epoch immediately: a crash right after promotion must
  // not recover into the deposed epoch and un-fence the old primary.
  try {
    if (!session.walPath.empty()) rewriteWalLocked(session);
  } catch (const Error& error) {
    log(LogLevel::kWarn) << "cannot persist promotion of " << sessionKey
                         << ": " << error.what();
  }
}

bool SessionService::stillOpenLocked(const std::string& sessionKey,
                                     const SessionPtr& session) const {
  const auto it = sessions_.find(sessionKey);
  return it != sessions_.end() && it->second == session;
}

bool SessionService::promotionDueLocked(const Session& session) const {
  if (options_.standbyGrace.count() <= 0) return true;   // gate disabled
  if (session.lastReplContact == std::chrono::steady_clock::time_point{})
    return true;  // never replicated to: nothing to protect
  return std::chrono::steady_clock::now() - session.lastReplContact >=
         options_.standbyGrace;
}

std::optional<Replicator::ResyncBundle> SessionService::resyncBundle(
    const std::string& tenant, const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto it = sessions_.find(key(tenant, name));
  if (it == sessions_.end()) return std::nullopt;
  Session& session = *it->second;
  Replicator::ResyncBundle bundle;
  bundle.snapshot.tenant = tenant;
  bundle.snapshot.name = name;
  bundle.snapshot.epoch = session.epoch;
  if (!session.snapPath.empty())
    if (const auto bytes = fsio::readFileIfExists(session.snapPath))
      bundle.snapshot.snapshot = *bytes;
  for (const auto& [seq, rec] : session.tail)
    bundle.tail.push_back(
        replRequestFor(session.engine.config(), session.epoch, rec));
  return bundle;
}

void SessionService::fenceSession(const std::string& tenant,
                                  const std::string& name,
                                  std::uint64_t standbyEpoch) {
  std::lock_guard lock(mutex_);
  const auto it = sessions_.find(key(tenant, name));
  if (it == sessions_.end()) return;
  it->second->fenced = true;
  log(LogLevel::kWarn) << "session " << key(tenant, name)
                       << " fenced: a standby holds epoch " << standbyEpoch
                       << " (local epoch " << it->second->epoch << ")";
}

void SessionService::beginDrain() {
  std::lock_guard lock(mutex_);
  draining_ = true;
}

std::size_t SessionService::drain() {
  static metrics::Counter& drained =
      metrics::counter(metrics::kSessionsDrained);
  {
    std::lock_guard lock(mutex_);
    draining_ = true;
    stopping_ = true;
    work_.notify_all();
  }
  // Finish or checkpoint in-flight work: every journaled mutation is
  // queued, and the executors exit only once the scheduler is idle.
  for (std::thread& t : executors_) t.join();
  executors_.clear();
  std::lock_guard lock(mutex_);
  stopped_ = true;
  applied_.notify_all();
  std::size_t persisted = 0;
  for (auto& [k, session] : sessions_) {
    try {
      persistLocked(*session);
      session->walFd.reset();
      ++persisted;
      drained.add();
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "cannot persist session " << k
                           << " on drain: " << error.what();
    }
  }
  return persisted;
}

std::size_t SessionService::sessionCount() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

void SessionService::fillStats(StatsResponse& stats) const {
  // Publish replication lag before the metrics snapshot the caller takes
  // right after this (the gauges are only as fresh as the last scrape).
  if (replicator_) replicator_->refreshGauges();
  std::lock_guard lock(mutex_);
  std::map<std::string, double> vtimes;
  for (const FairScheduler::FlowStats& flow : scheduler_.flowStats())
    vtimes.emplace(flow.flow, flow.vtime);
  const auto steadyNow = std::chrono::steady_clock::now();
  const auto bucketNow = TokenBucket::Clock::now();
  const auto ageMs = [&](std::chrono::steady_clock::time_point t) {
    if (t == std::chrono::steady_clock::time_point{})
      return static_cast<std::int64_t>(-1);
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(steadyNow - t)
            .count());
  };
  for (const auto& [flowKey, session] : sessions_) {
    const SessionConfig& config = session->engine.config();
    StatsResponse::SessionStats row;
    row.tenant = config.tenant;
    row.name = config.name;
    row.priority = static_cast<std::uint32_t>(config.priority);
    row.weight = config.weight;
    if (const auto vt = vtimes.find(flowKey); vt != vtimes.end())
      row.vtime = vt->second;
    // A tenant that has never mutated has no bucket yet — it would start
    // with a full burst.
    const auto bucket = buckets_.find(config.tenant);
    row.tokensRemaining = bucket != buckets_.end()
                              ? bucket->second.tokensAt(bucketNow)
                              : options_.tenantBurst;
    row.queued = session->lastAccepted - session->applied;
    row.applied = session->applied;
    row.walAgeMs = ageMs(session->lastWalAppend);
    row.snapshotAgeMs = ageMs(session->lastSnapshot);
    row.role = session->standby ? "standby" : "primary";
    row.epoch = session->epoch;
    stats.sessions.push_back(std::move(row));
  }
  stats.openSessions = sessions_.size();
  stats.schedulerDepth = scheduler_.depth();
  stats.schedulerVirtualNow = scheduler_.virtualNow();
}

// --- SessionStream --------------------------------------------------------

SessionStream::SessionStream(Options options) : options_(std::move(options)) {
  ipc::ignoreSigpipe();
  endpoints_ = options_.endpoints.empty()
                   ? std::vector<ipc::Endpoint>{options_.endpoint}
                   : options_.endpoints;
  breakers_.reserve(endpoints_.size());
  for (std::size_t k = 0; k < endpoints_.size(); ++k)
    breakers_.push_back(std::make_unique<CircuitBreaker>());
}

void SessionStream::rotate() {
  if (endpoints_.size() < 2) return;
  // Prefer the next endpoint whose breaker is not OPEN — an endpoint that
  // just timed out repeatedly should not be the first thing re-tried mid-
  // failover.  With every breaker open, plain round-robin (something has
  // to be probed).
  const std::size_t start = current_;
  std::size_t candidate = (start + 1) % endpoints_.size();
  for (std::size_t step = 1; step <= endpoints_.size(); ++step) {
    const std::size_t probe = (start + step) % endpoints_.size();
    if (breakers_[probe]->state() != CircuitBreaker::State::kOpen) {
      candidate = probe;
      break;
    }
  }
  if (candidate == start) return;
  current_ = candidate;
  ++failovers_;
  conn_.reset();
}

std::string SessionStream::exchange(const std::string& payload) {
  const auto deadline = std::chrono::steady_clock::now() + options_.retryFor;
  int attempt = 0;
  std::string lastError = "not connected";
  for (;;) {
    const ipc::Endpoint& endpoint = endpoints_[current_];
    CircuitBreaker& breaker = *breakers_[current_];
    try {
      if (!conn_.valid()) {
        conn_ = ipc::connectEndpoint(endpoint, 1000);
      } else if (ipc::pendingInput(conn_.get())) {
        // A reused connection with bytes already queued is desynchronized
        // (a duplicated or late frame): a read now would pair the stale
        // frame with this request.  Reconnect and resend instead.
        lastError = "stream desynchronized (unexpected pending frame)";
        conn_.reset();
        conn_ = ipc::connectEndpoint(endpoint, 1000);
      }
      ipc::writeFrame(conn_.get(), payload);
      CancelToken token(options_.readTimeout);
      std::string reply;
      const ipc::ReadStatus status =
          ipc::readFrame(conn_.get(), reply, &token);
      if (status == ipc::ReadStatus::kOk) {
        breaker.recordSuccess();
        return reply;
      }
      lastError = status == ipc::ReadStatus::kEof ? "connection closed"
                                                  : "reply timeout";
      conn_.reset();
    } catch (const ipc::IpcError& error) {
      lastError = error.what();
      conn_.reset();
    }
    // Resending after a reconnect is always safe: the server answers
    // duplicate sequence numbers from its (possibly journal-recovered)
    // transcript instead of re-applying them.  With a failover set, a
    // transport failure also rotates to the next endpoint — which is how a
    // killed primary is transparently replaced by its promoted standby.
    breaker.recordFailure();
    ++reconnects_;
    rotate();
    ++attempt;
    const auto delay =
        backoffDelay(attempt, kReconnectBackoffBase, kReconnectBackoffCap,
                     saltedJitter(endpoint.describe(), attempt));
    if (std::chrono::steady_clock::now() + delay >= deadline)
      throw ipc::IpcError("session endpoint " + endpoint.describe() +
                          " unreachable: " + lastError);
    std::this_thread::sleep_for(delay);
  }
}

SessionOpenResponse SessionStream::open(const SessionOpenRequest& request) {
  return decodeSessionOpenResponse(
      exchange(encodeSessionOpenRequest(request)));
}

SessionMutateResponse SessionStream::mutate(
    const SessionMutateRequest& request) {
  return decodeSessionMutateResponse(
      exchange(encodeSessionMutateRequest(request)));
}

SessionReplayResponse SessionStream::replay(
    const SessionReplayRequest& request) {
  return decodeSessionReplayResponse(
      exchange(encodeSessionReplayRequest(request)));
}

SessionCloseResponse SessionStream::close(const SessionCloseRequest& request) {
  return decodeSessionCloseResponse(
      exchange(encodeSessionCloseRequest(request)));
}

SessionStatusResponse SessionStream::status(
    const SessionStatusRequest& request) {
  return decodeSessionStatusResponse(
      exchange(encodeSessionStatusRequest(request)));
}

}  // namespace rfsm::service
