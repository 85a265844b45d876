#include "core/journal.hpp"

#include <sstream>

#include "util/hash.hpp"
#include "util/strings.hpp"

namespace rfsm {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-sensitive digest of the program, folded into every commit record
/// so a journal cannot be replayed against the wrong program.
std::uint64_t programDigest(const ReconfigurationProgram& program) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  for (const ReconfigStep& step : program.steps) {
    h = mix64(h ^ static_cast<std::uint64_t>(step.kind));
    h = mix64(h ^ static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(step.input)));
    h = mix64(h ^ static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(step.nextState)));
    h = mix64(h ^ static_cast<std::uint64_t>(
                      static_cast<std::uint32_t>(step.output)));
    h = mix64(h ^ (step.temporary ? 1u : 0u));
  }
  return h;
}

std::uint32_t commitChecksum(std::uint64_t digest, int step) {
  const std::uint64_t x =
      mix64(digest ^ static_cast<std::uint64_t>(step + 1));
  return static_cast<std::uint32_t>(x ^ (x >> 32));
}

std::string toHex(std::uint32_t value) {
  static const char* digits = "0123456789abcdef";
  std::string text(8, '0');
  for (int k = 7; k >= 0; --k) {
    text[static_cast<std::size_t>(k)] = digits[value & 0xf];
    value >>= 4;
  }
  return text;
}

bool fromHex(const std::string& text, std::uint32_t& value) {
  if (text.size() != 8) return false;
  value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint32_t>(digit);
  }
  return true;
}

std::uint32_t fold32(std::uint64_t x) {
  return static_cast<std::uint32_t>(x ^ (x >> 32));
}

}  // namespace

RecordLog::RecordLog(std::string header)
    : header_(std::move(header)), chain_(mix64(fnv1a64(header_))) {}

std::string RecordLog::appendLine(const std::string& payload) {
  RFSM_CHECK(!payload.empty(), "record log payloads must be non-empty");
  RFSM_CHECK(payload.find('\n') == std::string::npos,
             "record log payloads must be single-line");
  chain_ = mix64(chain_ ^ fnv1a64(payload));
  return payload + " " + toHex(fold32(chain_)) + "\n";
}

RecordLog::Parsed RecordLog::parse(const std::string& header,
                                   const std::string& text) {
  std::istringstream in(text);
  std::string rawLine;
  int lineNo = 0;
  bool sawHeader = false;
  // (line number, line) pairs gathered first, so a torn final record can be
  // told apart from mid-log damage.
  std::vector<std::pair<int, std::string>> lines;
  while (std::getline(in, rawLine)) {
    ++lineNo;
    const std::string line = trim(rawLine);
    if (line.empty()) continue;
    if (!sawHeader) {
      if (line != header)
        throw JournalError("journal line " + std::to_string(lineNo) +
                           ": expected header '" + header + "'");
      sawHeader = true;
      continue;
    }
    lines.emplace_back(lineNo, line);
  }
  if (!sawHeader)
    throw JournalError("journal line 1: missing '" + header + "' header");

  Parsed parsed;
  RecordLog chain(header);
  for (std::size_t k = 0; k < lines.size(); ++k) {
    const auto& [recordLine, line] = lines[k];
    const bool last = k + 1 == lines.size();
    std::string damage;
    const std::size_t space = line.find_last_of(" \t");
    std::uint32_t checksum = 0;
    std::string payload;
    if (space == std::string::npos)
      damage = "expected '<payload> <checksum>'";
    else if (!fromHex(line.substr(space + 1), checksum))
      damage = "bad checksum field '" + line.substr(space + 1) + "'";
    else {
      payload = trim(line.substr(0, space));
      const std::uint64_t next = mix64(chain.chain_ ^ fnv1a64(payload));
      if (payload.empty())
        damage = "empty record payload";
      else if (fold32(next) != checksum)
        damage = "checksum mismatch (damaged or reordered record)";
      else
        chain.chain_ = next;
    }
    if (damage.empty()) {
      parsed.records.push_back(std::move(payload));
      continue;
    }
    if (last) {
      parsed.truncated = true;
      break;
    }
    throw JournalError("journal line " + std::to_string(recordLine) + ": " +
                       damage);
  }
  return parsed;
}

void ProgramJournal::begin(const ReconfigurationProgram& program) {
  program_ = program;
  active_ = true;
  truncated_ = false;
  committed_ = 0;
}

void ProgramJournal::commit(int step) {
  RFSM_CHECK(active_, "commit on a journal without begin()");
  RFSM_CHECK(step == committed_, "journal commits must be sequential");
  RFSM_CHECK(step < program_.length(), "commit beyond the journaled program");
  committed_ = step + 1;
}

ReconfigurationProgram ProgramJournal::remainingProgram() const {
  RFSM_CHECK(active_, "remainingProgram on a journal without begin()");
  ReconfigurationProgram rest;
  rest.steps.assign(program_.steps.begin() + committed_,
                    program_.steps.end());
  return rest;
}

std::string ProgramJournal::serialize(const MigrationContext& context) const {
  RFSM_CHECK(active_, "serialize on a journal without begin()");
  std::ostringstream os;
  os << "rfsm-journal v1\n";
  os << programToText(context, program_);
  os << "begin\n";
  const std::uint64_t digest = programDigest(program_);
  for (int k = 0; k < committed_; ++k)
    os << "commit " << k << " " << toHex(commitChecksum(digest, k)) << "\n";
  if (complete()) os << "done\n";
  return os.str();
}

ProgramJournal ProgramJournal::parse(const MigrationContext& context,
                                     const std::string& text) {
  std::istringstream in(text);
  std::string rawLine;
  int lineNo = 0;
  bool sawHeader = false, sawBegin = false;
  std::ostringstream programText;
  // (line number, line) pairs of the commit section, gathered so a torn
  // final record can be told apart from mid-journal damage.
  std::vector<std::pair<int, std::string>> records;
  while (std::getline(in, rawLine)) {
    ++lineNo;
    const std::string line = trim(rawLine);
    if (line.empty()) continue;
    if (!sawHeader) {
      if (line != "rfsm-journal v1")
        throw JournalError("journal line " + std::to_string(lineNo) +
                           ": expected header 'rfsm-journal v1'");
      sawHeader = true;
      continue;
    }
    if (!sawBegin) {
      if (line == "begin") {
        sawBegin = true;
      } else {
        programText << line << "\n";
      }
      continue;
    }
    records.emplace_back(lineNo, line);
  }
  if (!sawHeader)
    throw JournalError("journal line 1: missing 'rfsm-journal v1' header");
  if (!sawBegin)
    throw JournalError("journal line " + std::to_string(lineNo) +
                       ": truncated before 'begin'");

  ProgramJournal journal;
  journal.begin(programFromText(context, programText.str()));
  const std::uint64_t digest = programDigest(journal.program_);

  for (std::size_t k = 0; k < records.size(); ++k) {
    const auto& [recordLine, record] = records[k];
    const bool last = k + 1 == records.size();
    std::string damage;
    if (record == "done") {
      if (last && journal.complete()) continue;
      damage = "'done' before every step committed";
    } else {
      const auto tokens = splitWhitespace(record);
      std::uint32_t checksum = 0;
      if (tokens.size() != 3 || tokens[0] != "commit")
        damage = "expected 'commit <step> <checksum>'";
      else if (journal.complete())
        damage = "commit record beyond the journaled program";
      else if (!fromHex(tokens[2], checksum))
        damage = "bad checksum field '" + tokens[2] + "'";
      else if (tokens[1] != std::to_string(journal.committed_))
        damage = "out-of-order commit record '" + tokens[1] + "'";
      else if (checksum != commitChecksum(digest, journal.committed_))
        damage = "checksum mismatch (journal does not match its program)";
    }
    if (damage.empty()) {
      journal.commit(journal.committed_);
      continue;
    }
    // A torn final record is exactly what a power cut leaves behind; the
    // committed prefix before it is still trustworthy.
    if (last) {
      journal.truncated_ = true;
      break;
    }
    throw JournalError("journal line " + std::to_string(recordLine) + ": " +
                       damage);
  }
  return journal;
}

}  // namespace rfsm
