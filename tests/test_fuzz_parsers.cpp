// Fuzz-style robustness tests: the KISS2, JSON, reconfiguration-program,
// journal and wire-protocol parsers must never crash or corrupt state on
// malformed input — every failure is a typed error (FsmError,
// ProgramParseError, JournalError, IpcError/FrameError), never a
// ContractError or a raw crash.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "core/journal.hpp"
#include "core/jsr.hpp"
#include "core/program.hpp"
#include "fsm/builder.hpp"
#include "fsm/kiss.hpp"
#include "fsm/serialize.hpp"
#include "gen/families.hpp"
#include "gen/generator.hpp"
#include "service/protocol.hpp"
#include "util/ipc.hpp"
#include "util/rng.hpp"

namespace rfsm {
namespace {

/// Random printable garbage.
std::string garbage(Rng& rng, int maxLength) {
  const int length = static_cast<int>(rng.below(
      static_cast<std::uint64_t>(maxLength) + 1));
  std::string text;
  for (int k = 0; k < length; ++k)
    text += static_cast<char>(32 + rng.below(95));
  return text;
}

/// Mutates a valid document: deletes, duplicates or flips random bytes.
std::string corrupt(const std::string& valid, Rng& rng) {
  std::string text = valid;
  const int edits = 1 + static_cast<int>(rng.below(5));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos =
        static_cast<std::size_t>(rng.below(text.size()));
    switch (rng.below(3)) {
      case 0:
        text.erase(pos, 1);
        break;
      case 1:
        text.insert(pos, 1, static_cast<char>(32 + rng.below(95)));
        break;
      default:
        text[pos] = static_cast<char>(32 + rng.below(95));
    }
  }
  return text;
}

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, Kiss2NeverCrashesOnGarbage) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1009 + 1);
  for (int round = 0; round < 50; ++round) {
    const std::string text = garbage(rng, 200);
    try {
      const Kiss2Document doc = parseKiss2(text);
      // If it parsed, lifting must also either work or throw FsmError.
      try {
        (void)machineFromKiss2(doc, "fuzz");
      } catch (const FsmError&) {
      }
    } catch (const FsmError&) {
      // expected for malformed input
    }
  }
}

TEST_P(ParserFuzzTest, Kiss2SurvivesCorruptedValidDocuments) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2003 + 7);
  const std::string valid =
      ".i 2\n.o 1\n.r S0\n"
      "00 S0 S1 0\n01 S0 S0 1\n1- S0 S1 1\n"
      "-- S1 S0 0\n.e\n";
  // Sanity: the uncorrupted document parses.
  EXPECT_NO_THROW(parseKiss2(valid));
  for (int round = 0; round < 50; ++round) {
    const std::string text = corrupt(valid, rng);
    try {
      (void)machineFromKiss2(parseKiss2(text), "fuzz");
    } catch (const FsmError&) {
    } catch (const ContractError&) {
      FAIL() << "internal contract violated on corrupted input";
    }
  }
}

TEST_P(ParserFuzzTest, JsonNeverCrashesOnGarbage) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 3001 + 3);
  for (int round = 0; round < 50; ++round) {
    const std::string text = garbage(rng, 200);
    try {
      (void)machineFromJson(text);
    } catch (const FsmError&) {
    }
  }
}

TEST_P(ParserFuzzTest, JsonSurvivesCorruptedValidDocuments) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 4001 + 9);
  RandomMachineSpec spec;
  spec.stateCount = 4;
  const std::string valid = toJson(randomMachine(spec, rng));
  for (int round = 0; round < 50; ++round) {
    const std::string text = corrupt(valid, rng);
    try {
      (void)machineFromJson(text);
    } catch (const FsmError&) {
    } catch (const ContractError&) {
      FAIL() << "internal contract violated on corrupted input";
    }
  }
}

TEST_P(ParserFuzzTest, ProgramParserNeverCrashesOnGarbage) {
  const MigrationContext context(example41Source(), example41Target());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 5003 + 11);
  for (int round = 0; round < 50; ++round) {
    const std::string text = garbage(rng, 200);
    try {
      (void)programFromText(context, text);
    } catch (const ProgramParseError&) {
      // the only acceptable failure mode
    }
  }
}

TEST_P(ParserFuzzTest, ProgramParserSurvivesCorruptedValidPrograms) {
  const MigrationContext context(example41Source(), example41Target());
  const std::string valid = programToText(context, planJsr(context));
  EXPECT_NO_THROW(programFromText(context, valid));
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6007 + 5);
  for (int round = 0; round < 50; ++round) {
    const std::string text = corrupt(valid, rng);
    try {
      (void)programFromText(context, text);
    } catch (const ProgramParseError&) {
    } catch (const ContractError&) {
      FAIL() << "internal contract violated on corrupted program";
    }
  }
}

TEST(ProgramParserAdversarial, MalformedDocumentsThrowTypedErrors) {
  const MigrationContext context(example41Source(), example41Target());
  const std::string stepLines = "reset\nrewrite 0 S1 0\nreset\n";
  const std::vector<std::string> attacks = {
      "",                                         // empty file
      "rfsm-program v1\n",                        // truncated after header
      "rfsm-program v2\nsteps 0\nend\n",          // wrong version
      "rfsm-program v1\nsteps 3\n" + stepLines,   // missing end marker
      "rfsm-program v1\nsteps 99\n" + stepLines + "end\n",   // count too big
      "rfsm-program v1\nsteps 1\n" + stepLines + "end\n",    // count too small
      "rfsm-program v1\nsteps -7\nend\n",                    // negative count
      "rfsm-program v1\nsteps 999999999999999999999\nend\n", // overflow
      "rfsm-program v1\nsteps 1\nrewrite 0 NOPE 0\nend\n",   // unknown state
      "rfsm-program v1\nsteps 1\nrewrite 9 S1 0\nend\n",     // unknown input
      "rfsm-program v1\nsteps 1\nrewrite 0 S1\nend\n",       // missing field
      "rfsm-program v1\nsteps 1\nteleport 0\nend\n",         // unknown step
  };
  for (const std::string& text : attacks) {
    EXPECT_THROW((void)programFromText(context, text), ProgramParseError)
        << "attack: " << text;
  }
}

// ---------------------------------------------------------------------------
// Journal parser: a journal is a program plus commit records, so it must be
// exactly as robust, and additionally tolerate a torn trailing record
// (power loss mid-write) without raising.

TEST(JournalFuzz, ByteTruncationSweepNeverViolatesContracts) {
  const MigrationContext context(example41Source(), example41Target());
  ProgramJournal journal;
  journal.begin(planJsr(context));
  journal.commit(0);
  journal.commit(1);
  const std::string full = journal.serialize(context);
  for (std::size_t keep = 0; keep <= full.size(); ++keep) {
    const std::string text = full.substr(0, keep);
    try {
      const ProgramJournal parsed = ProgramJournal::parse(context, text);
      // Parsed journals must be internally consistent.
      EXPECT_LE(parsed.committedSteps(), parsed.program().length());
    } catch (const JournalError&) {
    } catch (const ProgramParseError&) {
    } catch (const ContractError&) {
      FAIL() << "contract violated at truncation length " << keep;
    }
  }
}

TEST(JournalFuzz, CorruptedJournalsThrowTypedErrorsOnly) {
  const MigrationContext context(example41Source(), example41Target());
  ProgramJournal journal;
  journal.begin(planJsr(context));
  for (int k = 0; k < journal.program().length(); ++k) journal.commit(k);
  const std::string valid = journal.serialize(context);
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    const std::string text = corrupt(valid, rng);
    try {
      (void)ProgramJournal::parse(context, text);
    } catch (const JournalError&) {
    } catch (const ProgramParseError&) {
    } catch (const ContractError&) {
      FAIL() << "internal contract violated on corrupted journal";
    }
  }
}

TEST(JournalFuzz, AdversarialCommitRecordsRejected) {
  const MigrationContext context(example41Source(), example41Target());
  ProgramJournal journal;
  journal.begin(planJsr(context));
  const std::string base = journal.serialize(context);
  // A forged commit for a step the program does not have, plus a trailing
  // line so it is not excused as a torn tail.
  EXPECT_THROW(ProgramJournal::parse(
                   context, base + "commit 99 00000000\ncommit 100 0\n"),
               JournalError);
  // Out-of-order commits.
  EXPECT_THROW(ProgramJournal::parse(
                   context, base + "commit 1 00000000\ncommit 0 0\n"),
               JournalError);
  // A wrong checksum anywhere but the tail is hard damage.
  EXPECT_THROW(ProgramJournal::parse(
                   context, base + "commit 0 deadbeef\ndone\n"),
               JournalError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Wire-protocol frames (service/protocol.hpp + util/ipc.hpp).  The corpus is
// one valid payload per message type; mutations are binary (byte flips,
// inserts, erases, truncation), plus raw-wire rounds that mutate the length
// prefix and CRC trailer specifically.  The contract: decoders and the frame
// reader fail with typed IpcError/FrameError only — no crash, no hang, no
// ContractError — across 10k seeded iterations (8 seeds x 1250).

/// One valid encoded payload per MessageType, with non-default field values
/// so mutations have structure to chew on.
std::vector<std::pair<std::string, std::string>> protocolCorpus() {
  namespace svc = service;
  std::vector<std::pair<std::string, std::string>> corpus;
  svc::PlanRequest plan;
  plan.spec.stateCount = 12;
  plan.spec.planner = "ea";
  plan.deadlineMs = 250;
  plan.requestId = 0xfeedu;
  plan.lo = 2;
  plan.hi = 6;
  corpus.emplace_back("PlanRequest", svc::encodePlanRequest(plan));
  svc::PlanResponse planReply;
  planReply.status = WorkResult::Status::kOk;
  planReply.programs = {"rfsm-program v1\nsteps 0\nend\n", "p2"};
  planReply.retries = 1;
  corpus.emplace_back("PlanResponse", svc::encodePlanResponse(planReply));
  corpus.emplace_back("HealthRequest", svc::encodeHealthRequest());
  svc::HealthResponse health;
  health.healthy = true;
  health.workersAlive = 3;
  health.crashes = 2;
  corpus.emplace_back("HealthResponse", svc::encodeHealthResponse(health));
  svc::ShardRequest shard;
  shard.spec.instanceCount = 16;
  shard.lo = 4;
  shard.hi = 8;
  shard.deadlineNs = 12345;
  corpus.emplace_back("ShardRequest", svc::encodeShardRequest(shard));
  svc::ShardResponse shardReply;
  shardReply.status = WorkResult::Status::kOk;
  shardReply.programs = {"a", "b", "c"};
  corpus.emplace_back("ShardResponse", svc::encodeShardResponse(shardReply));
  corpus.emplace_back("WarmupRequest", svc::encodeWarmupRequest());
  corpus.emplace_back("WarmupResponse", svc::encodeWarmupResponse());
  svc::SessionOpenRequest open;
  open.tenant = "acme";
  open.name = "line-7";
  open.priority = 0;
  corpus.emplace_back("SessionOpenRequest",
                      svc::encodeSessionOpenRequest(open));
  svc::SessionOpenResponse openReply;
  openReply.status = svc::SessionStatus::kOk;
  openReply.lastApplied = 9;
  corpus.emplace_back("SessionOpenResponse",
                      svc::encodeSessionOpenResponse(openReply));
  svc::SessionMutateRequest mutate;
  mutate.tenant = "acme";
  mutate.name = "line-7";
  mutate.seq = 10;
  mutate.defer = true;
  corpus.emplace_back("SessionMutateRequest",
                      svc::encodeSessionMutateRequest(mutate));
  svc::SessionMutateResponse mutateReply;
  mutateReply.status = svc::SessionStatus::kOk;
  mutateReply.seq = 10;
  mutateReply.program = "rfsm-program v1\nsteps 0\nend\n";
  corpus.emplace_back("SessionMutateResponse",
                      svc::encodeSessionMutateResponse(mutateReply));
  svc::SessionReplayRequest replay;
  replay.tenant = "acme";
  replay.name = "line-7";
  replay.toSeq = 10;
  corpus.emplace_back("SessionReplayRequest",
                      svc::encodeSessionReplayRequest(replay));
  svc::SessionReplayResponse replayReply;
  replayReply.status = svc::SessionStatus::kOk;
  replayReply.entries.push_back({3, "p3"});
  replayReply.entries.push_back({4, "p4"});
  corpus.emplace_back("SessionReplayResponse",
                      svc::encodeSessionReplayResponse(replayReply));
  svc::SessionCloseRequest close;
  close.tenant = "acme";
  close.name = "line-7";
  corpus.emplace_back("SessionCloseRequest",
                      svc::encodeSessionCloseRequest(close));
  svc::SessionCloseResponse closeReply;
  closeReply.status = svc::SessionStatus::kOk;
  closeReply.mutationsApplied = 11;
  corpus.emplace_back("SessionCloseResponse",
                      svc::encodeSessionCloseResponse(closeReply));
  corpus.emplace_back("StatsRequest", svc::encodeStatsRequest());
  svc::StatsResponse stats;
  stats.pid = 4242;
  stats.draining = true;
  stats.breakers.push_back({"planner", "OPEN", 3});
  corpus.emplace_back("StatsResponse", svc::encodeStatsResponse(stats));
  svc::TraceDumpRequest traceDump;
  traceDump.clientSteadyNs = 777;
  corpus.emplace_back("TraceDumpRequest",
                      svc::encodeTraceDumpRequest(traceDump));
  svc::TraceDumpResponse traceReply;
  traceReply.serverSteadyNs = 888;
  traceReply.traceJson = "{\"traceEvents\":[]}";
  corpus.emplace_back("TraceDumpResponse",
                      svc::encodeTraceDumpResponse(traceReply));
  corpus.emplace_back("HandshakeRequest",
                      svc::encodeHandshakeRequest(svc::HandshakeRequest{}));
  svc::HandshakeResponse handshakeReply;
  handshakeReply.accepted = false;
  handshakeReply.error = "protocol version mismatch (peer 2, server 1)";
  corpus.emplace_back("HandshakeResponse",
                      svc::encodeHandshakeResponse(handshakeReply));
  svc::SessionReplAppendRequest replAppend;
  replAppend.tenant = "acme";
  replAppend.name = "line-7";
  replAppend.epoch = 4;
  replAppend.seq = 11;
  replAppend.mutationSeed = 0xabcdu;
  replAppend.defer = true;
  corpus.emplace_back("SessionReplAppendRequest",
                      svc::encodeSessionReplAppendRequest(replAppend));
  svc::SessionReplAppendResponse replAppendReply;
  replAppendReply.status = svc::SessionStatus::kStaleEpoch;
  replAppendReply.error = "stale epoch";
  replAppendReply.epoch = 5;
  replAppendReply.lastAccepted = 10;
  corpus.emplace_back("SessionReplAppendResponse",
                      svc::encodeSessionReplAppendResponse(replAppendReply));
  svc::SessionReplSnapshotRequest replSnapshot;
  replSnapshot.tenant = "acme";
  replSnapshot.name = "line-7";
  replSnapshot.epoch = 4;
  replSnapshot.snapshot = std::string("rfsm-session-snap v1\x00\x7f", 22);
  corpus.emplace_back("SessionReplSnapshotRequest",
                      svc::encodeSessionReplSnapshotRequest(replSnapshot));
  svc::SessionReplSnapshotResponse replSnapshotReply;
  replSnapshotReply.status = svc::SessionStatus::kOk;
  replSnapshotReply.epoch = 4;
  replSnapshotReply.lastAccepted = 8;
  corpus.emplace_back("SessionReplSnapshotResponse",
                      svc::encodeSessionReplSnapshotResponse(replSnapshotReply));
  svc::SessionStatusRequest sessionStatus;
  sessionStatus.tenant = "acme";
  sessionStatus.name = "line-7";
  corpus.emplace_back("SessionStatusRequest",
                      svc::encodeSessionStatusRequest(sessionStatus));
  svc::SessionStatusResponse sessionStatusReply;
  sessionStatusReply.status = svc::SessionStatus::kOk;
  sessionStatusReply.role = "standby";
  sessionStatusReply.epoch = 4;
  sessionStatusReply.lastAccepted = 11;
  sessionStatusReply.applied = 10;
  corpus.emplace_back("SessionStatusResponse",
                      svc::encodeSessionStatusResponse(sessionStatusReply));
  return corpus;
}

/// Binary mutation (full byte range, unlike the printable `corrupt` above):
/// 1-8 random erase/insert/flip edits, or a hard truncation.
std::string corruptBinary(const std::string& valid, Rng& rng) {
  if (rng.below(4) == 0)  // truncation, including to the empty payload
    return valid.substr(0, rng.below(valid.size() + 1));
  std::string text = valid;
  const int edits = 1 + static_cast<int>(rng.below(8));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t pos =
        static_cast<std::size_t>(rng.below(text.size()));
    switch (rng.below(3)) {
      case 0:
        text.erase(pos, 1);
        break;
      case 1:
        text.insert(pos, 1, static_cast<char>(rng.below(256)));
        break;
      default:
        text[pos] = static_cast<char>(rng.below(256));
    }
  }
  return text;
}

/// Every protocol decoder, so a mutated payload can be thrown at all of
/// them — a frame that mutated into another type's tag must still fail
/// typed in the wrong decoder.
const std::vector<std::function<void(const std::string&)>>& allDecoders() {
  namespace svc = service;
  static const std::vector<std::function<void(const std::string&)>> decoders =
      {
          [](const std::string& p) { (void)svc::decodePlanRequest(p); },
          [](const std::string& p) { (void)svc::decodePlanResponse(p); },
          [](const std::string& p) { (void)svc::decodeHealthResponse(p); },
          [](const std::string& p) { (void)svc::decodeShardRequest(p); },
          [](const std::string& p) { (void)svc::decodeShardResponse(p); },
          [](const std::string& p) { svc::decodeWarmupResponse(p); },
          [](const std::string& p) { (void)svc::decodeSessionOpenRequest(p); },
          [](const std::string& p) {
            (void)svc::decodeSessionOpenResponse(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionMutateRequest(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionMutateResponse(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionReplayRequest(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionReplayResponse(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionCloseRequest(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionCloseResponse(p);
          },
          [](const std::string& p) { svc::decodeStatsRequest(p); },
          [](const std::string& p) { (void)svc::decodeStatsResponse(p); },
          [](const std::string& p) { (void)svc::decodeTraceDumpRequest(p); },
          [](const std::string& p) { (void)svc::decodeTraceDumpResponse(p); },
          [](const std::string& p) { (void)svc::decodeHandshakeRequest(p); },
          [](const std::string& p) {
            (void)svc::decodeHandshakeResponse(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionReplAppendRequest(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionReplAppendResponse(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionReplSnapshotRequest(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionReplSnapshotResponse(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionStatusRequest(p);
          },
          [](const std::string& p) {
            (void)svc::decodeSessionStatusResponse(p);
          },
      };
  return decoders;
}

TEST(ProtocolParserFuzzCorpus, CoversEveryFrameTypeAndEveryDecoder) {
  // Every tag up to kLastMessageType needs one corpus payload, and every
  // frame with a decoder needs one entry in allDecoders(), so the next frame
  // added cannot skip fuzzing.  Only the health and warm-up requests, which
  // the server answers on their tag alone, have no decoder.
  namespace svc = service;
  const auto corpus = protocolCorpus();
  std::vector<svc::MessageType> types;
  for (const auto& entry : corpus) types.push_back(svc::peekType(entry.second));
  const auto tags = static_cast<std::uint32_t>(svc::kLastMessageType);
  EXPECT_GE(tags, 28u);
  EXPECT_EQ(corpus.size(), tags);
  for (std::uint32_t tag = 1; tag <= tags; ++tag)
    EXPECT_EQ(std::count(types.begin(), types.end(),
                         static_cast<svc::MessageType>(tag)),
              1)
        << "frame type " << tag << " needs exactly one corpus payload";
  const std::string beyond{static_cast<char>(tags + 1), 0, 0, 0};
  EXPECT_THROW((void)svc::peekType(beyond), ipc::IpcError);

  const auto& decoders = allDecoders();
  const std::vector<svc::MessageType> tagOnly = {
      svc::MessageType::kHealthRequest, svc::MessageType::kWarmupRequest};
  EXPECT_EQ(decoders.size(), tags - tagOnly.size());
  std::vector<int> accepts(decoders.size(), 0);
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    int acceptedBy = 0;
    for (std::size_t which = 0; which < decoders.size(); ++which) {
      try {
        decoders[which](corpus[k].second);
        ++acceptedBy;
        ++accepts[which];
      } catch (const ipc::IpcError&) {
      }
    }
    const bool decodable =
        std::find(tagOnly.begin(), tagOnly.end(), types[k]) == tagOnly.end();
    EXPECT_EQ(acceptedBy, decodable ? 1 : 0) << corpus[k].first;
  }
  for (std::size_t which = 0; which < decoders.size(); ++which)
    EXPECT_EQ(accepts[which], 1) << "decoder " << which;
}

class ProtocolParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolParserFuzzTest, MutatedPayloadsFailWithTypedErrorsOnly) {
  const auto corpus = protocolCorpus();
  const auto& decoders = allDecoders();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7013 + 17);
  for (int round = 0; round < 800; ++round) {
    const auto& seedEntry = corpus[rng.below(corpus.size())];
    const std::string text = corruptBinary(seedEntry.second, rng);
    try {
      (void)service::peekType(text);
    } catch (const ipc::IpcError&) {
    } catch (const ContractError&) {
      FAIL() << "peekType contract violated on mutated " << seedEntry.first;
    }
    // Route through one random wrong-or-right decoder every round, and all
    // of them occasionally — mutation can rewrite the type tag.
    const auto tryDecode = [&](std::size_t which) {
      try {
        decoders[which](text);
      } catch (const ipc::IpcError&) {
      } catch (const ContractError&) {
        FAIL() << "decoder " << which << " contract violated on mutated "
               << seedEntry.first;
      }
    };
    tryDecode(rng.below(decoders.size()));
    if (round % 50 == 0)
      for (std::size_t which = 0; which < decoders.size(); ++which)
        tryDecode(which);
  }
}

TEST_P(ProtocolParserFuzzTest, MutatedWireFramesNeverHangTheReader) {
  const auto corpus = protocolCorpus();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 8009 + 23);
  for (int round = 0; round < 200; ++round) {
    const std::string& payload = corpus[rng.below(corpus.size())].second;
    // Assemble the wire image (length | payload | CRC32C) by hand, then
    // mutate it — some rounds target the length prefix or the CRC trailer
    // specifically, the rest mutate anywhere.
    std::string frame;
    const auto le32 = [&frame](std::uint32_t value) {
      for (int k = 0; k < 4; ++k)
        frame.push_back(static_cast<char>(value >> (8 * k)));
    };
    le32(static_cast<std::uint32_t>(payload.size()));
    frame += payload;
    le32(ipc::crc32c(payload));
    switch (rng.below(3)) {
      case 0: {  // length mutation
        frame[rng.below(4)] ^= static_cast<char>(1u << rng.below(8));
        break;
      }
      case 1: {  // CRC flip
        frame[frame.size() - 4 + rng.below(4)] ^=
            static_cast<char>(1u << rng.below(8));
        break;
      }
      default:
        frame = corruptBinary(frame, rng);
    }
    int fds[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(write(fds[0], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ::close(fds[0]);  // writer closed: a mutated length reads EOF, not hang
    std::string out;
    try {
      (void)ipc::readFrame(fds[1], out);  // kOk, kEof, or a typed throw
    } catch (const ipc::IpcError&) {
    } catch (const ContractError&) {
      ::close(fds[1]);
      FAIL() << "frame reader contract violated";
    }
    ::close(fds[1]);
  }
}

TEST_P(ProtocolParserFuzzTest, HandshakeDowngradeAttemptsAreTotal) {
  // answerHandshake must be a total function: any (version, features) pair —
  // downgrade probes, feature-bit squatting, garbage versions — yields a
  // well-formed refusal or a masked acceptance, never a throw.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9001 + 29);
  for (int round = 0; round < 250; ++round) {
    service::HandshakeRequest request;
    request.version =
        static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << 32));
    request.features =
        static_cast<std::uint32_t>(rng.below(std::uint64_t{1} << 32));
    const auto response = service::answerHandshake(request);
    EXPECT_EQ(response.version, service::kProtocolVersion);
    if (request.version == service::kProtocolVersion) {
      EXPECT_TRUE(response.accepted);
      EXPECT_EQ(response.features & ~service::kFeatureCrc32c, 0u);
    } else {
      EXPECT_FALSE(response.accepted);
      EXPECT_EQ(response.features, 0u);
      EXPECT_FALSE(response.error.empty());
    }
    // The refusal/acceptance must survive its own wire round-trip.
    const auto back = service::decodeHandshakeResponse(
        service::encodeHandshakeResponse(response));
    EXPECT_EQ(back.accepted, response.accepted);
    EXPECT_EQ(back.features, response.features);
    EXPECT_EQ(back.error, response.error);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolParserFuzzTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace rfsm
