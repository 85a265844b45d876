#include "core/mutable_machine.hpp"

#include "util/metrics.hpp"

namespace rfsm {
namespace {

/// ceil(log2(count)) with a 1-bit floor — the RAM word width of a field
/// holding ids 0..count-1.
int bitWidth(int count) {
  int width = 1;
  while ((1 << width) < count) ++width;
  return width;
}

/// Bijective 64-bit mix (splitmix64 finalizer) of the packed (next, out)
/// pair.  Bijective means distinct cell contents always map to distinct
/// checksums: every corruption of a specified cell is detectable.
std::uint64_t cellChecksum(SymbolId next, SymbolId out) {
  std::uint64_t x =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(next)) << 32) |
      static_cast<std::uint32_t>(out);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Renders a symbol id that may have been corrupted out of table range.
std::string safeName(const SymbolTable& table, SymbolId id) {
  if (table.contains(id)) return table.name(id);
  return "<corrupt id " + std::to_string(id) + ">";
}

}  // namespace

MutableMachine::MutableMachine(const MigrationContext& context)
    : context_(context),
      stateBits_(bitWidth(context.states().size())),
      outputBits_(bitWidth(context.outputs().size())),
      state_(context.sourceReset()) {
  const auto cells = static_cast<std::size_t>(context.states().size()) *
                     static_cast<std::size_t>(context.inputs().size());
  next_.assign(cells, kNoSymbol);
  out_.assign(cells, kNoSymbol);
  specified_.assign(cells, 0);
  integrity_.assign(cells, 0);
  for (SymbolId s = 0; s < context.states().size(); ++s) {
    if (!context.inSourceStates(s)) continue;
    for (SymbolId i = 0; i < context.inputs().size(); ++i) {
      if (!context.inSourceInputs(i)) continue;
      const std::size_t c = cell(i, s);
      next_[c] = context.sourceNext(i, s);
      out_[c] = context.sourceOutput(i, s);
      specified_[c] = 1;
      reseal(c);
    }
  }
}

void MutableMachine::reseal(std::size_t c) {
  integrity_[c] = cellChecksum(next_[c], out_[c]);
}

std::size_t MutableMachine::cell(SymbolId input, SymbolId state) const {
  RFSM_CHECK(context_.inputs().contains(input), "input id out of range");
  RFSM_CHECK(context_.states().contains(state), "state id out of range");
  return static_cast<std::size_t>(state) *
             static_cast<std::size_t>(context_.inputs().size()) +
         static_cast<std::size_t>(input);
}

bool MutableMachine::isSpecified(SymbolId input, SymbolId state) const {
  return specified_[cell(input, state)] != 0;
}

SymbolId MutableMachine::next(SymbolId input, SymbolId state) const {
  const std::size_t c = cell(input, state);
  RFSM_CHECK(specified_[c] != 0, "reading an unspecified F cell");
  return next_[c];
}

SymbolId MutableMachine::output(SymbolId input, SymbolId state) const {
  const std::size_t c = cell(input, state);
  RFSM_CHECK(specified_[c] != 0, "reading an unspecified G cell");
  return out_[c];
}

SymbolId MutableMachine::applyStep(const ReconfigStep& step) {
  switch (step.kind) {
    case StepKind::kReset:
      state_ = context_.targetReset();
      return kNoSymbol;
    case StepKind::kTraverse: {
      const std::size_t c = cell(step.input, state_);
      if (specified_[c] == 0)
        throw MigrationError(
            "traverse through unspecified cell (" +
            context_.inputs().name(step.input) + ", " +
            context_.states().name(state_) + ")");
      if (!context_.states().contains(next_[c]))
        throw MigrationError(
            "traverse through corrupted cell (" +
            context_.inputs().name(step.input) + ", " +
            context_.states().name(state_) + "): F entry " +
            std::to_string(next_[c]) + " is not a state");
      state_ = next_[c];
      return out_[c];
    }
    case StepKind::kRewrite: {
      RFSM_CHECK(context_.states().contains(step.nextState),
                 "rewrite next-state out of range");
      RFSM_CHECK(context_.outputs().contains(step.output),
                 "rewrite output out of range");
      const std::size_t c = cell(step.input, state_);
      next_[c] = step.nextState;
      out_[c] = step.output;
      specified_[c] = 1;
      reseal(c);
      ++tableVersion_;
      // Write-through traversal: the machine takes the new transition in
      // the same cycle (this is what makes temporary transitions shortcuts).
      state_ = step.nextState;
      return step.output;
    }
  }
  throw MigrationError("unknown step kind");
}

void MutableMachine::applyProgram(const ReconfigurationProgram& program) {
  for (const ReconfigStep& step : program.steps) applyStep(step);
}

SymbolId MutableMachine::stepNormal(SymbolId input) {
  const std::size_t c = cell(input, state_);
  RFSM_CHECK(specified_[c] != 0, "normal step through unspecified cell");
  if (!context_.states().contains(next_[c]))
    throw MigrationError("normal step through corrupted cell (" +
                         context_.inputs().name(input) + ", " +
                         context_.states().name(state_) + "): F entry " +
                         std::to_string(next_[c]) + " is not a state");
  const SymbolId o = out_[c];
  state_ = next_[c];
  return o;
}

void MutableMachine::loadCell(SymbolId input, SymbolId state,
                              SymbolId nextState, SymbolId output) {
  RFSM_CHECK(context_.states().contains(nextState),
             "loadCell next-state out of range");
  RFSM_CHECK(context_.outputs().contains(output),
             "loadCell output out of range");
  const std::size_t c = cell(input, state);
  next_[c] = nextState;
  out_[c] = output;
  specified_[c] = 1;
  reseal(c);
  ++tableVersion_;
}

void MutableMachine::clearCell(SymbolId input, SymbolId state) {
  const std::size_t c = cell(input, state);
  next_[c] = kNoSymbol;
  out_[c] = kNoSymbol;
  specified_[c] = 0;
  integrity_[c] = 0;
  ++tableVersion_;
}

void MutableMachine::corruptBit(SymbolId input, SymbolId state, int bit) {
  RFSM_CHECK(bit >= 0 && bit < faultBitsPerCell(),
             "corrupt bit index out of the cell word");
  const std::size_t c = cell(input, state);
  if (bit < stateBits_)
    next_[c] ^= SymbolId{1} << bit;
  else
    out_[c] ^= SymbolId{1} << (bit - stateBits_);
  // No reseal: the damage is silent at the RAM level.  The version bump
  // only tells version-keyed verifiers that the stored words changed.
  ++tableVersion_;
}

std::vector<TotalState> MutableMachine::integrityScan() const {
  static metrics::Counter& scans = metrics::counter(metrics::kIntegrityScans);
  scans.add();
  std::vector<TotalState> corrupted;
  for (SymbolId s = 0; s < context_.states().size(); ++s) {
    for (SymbolId i = 0; i < context_.inputs().size(); ++i) {
      const std::size_t c = cell(i, s);
      if (specified_[c] == 0) continue;
      if (integrity_[c] != cellChecksum(next_[c], out_[c]))
        corrupted.push_back(TotalState{i, s});
    }
  }
  return corrupted;
}

MutableMachine::TableImage MutableMachine::checkpoint() const {
  return TableImage{next_, out_, specified_, integrity_, state_};
}

void MutableMachine::restore(const TableImage& image) {
  RFSM_CHECK(image.next.size() == next_.size() &&
                 image.out.size() == out_.size() &&
                 image.specified.size() == specified_.size() &&
                 image.integrity.size() == integrity_.size(),
             "restoring a checkpoint of a different machine");
  RFSM_CHECK(context_.states().contains(image.state),
             "restoring a checkpoint with an invalid state");
  next_ = image.next;
  out_ = image.out;
  specified_ = image.specified;
  integrity_ = image.integrity;
  state_ = image.state;
  ++tableVersion_;
}

bool MutableMachine::matchesSource(std::string* reason) const {
  const Machine& source = context_.sourceMachine();
  for (SymbolId s = 0; s < source.stateCount(); ++s) {
    const SymbolId ss = context_.liftSourceState(s);
    for (SymbolId i = 0; i < source.inputCount(); ++i) {
      const SymbolId si = context_.liftSourceInput(i);
      const std::size_t c = cell(si, ss);
      const SymbolId wantNext = context_.sourceNext(si, ss);
      const SymbolId wantOut = context_.sourceOutput(si, ss);
      const bool ok = specified_[c] != 0 && next_[c] == wantNext &&
                      out_[c] == wantOut;
      if (!ok) {
        if (reason != nullptr)
          *reason = "cell (" + context_.inputs().name(si) + ", " +
                    context_.states().name(ss) + ") does not hold M's (" +
                    safeName(context_.states(), wantNext) + ", " +
                    safeName(context_.outputs(), wantOut) + ")";
        return false;
      }
    }
  }
  return true;
}

bool MutableMachine::matchesTarget(std::string* reason) const {
  const Machine& target = context_.targetMachine();
  for (SymbolId s = 0; s < target.stateCount(); ++s) {
    const SymbolId ss = context_.liftTargetState(s);
    for (SymbolId i = 0; i < target.inputCount(); ++i) {
      const SymbolId si = context_.liftTargetInput(i);
      const std::size_t c = cell(si, ss);
      const SymbolId wantNext =
          context_.liftTargetState(target.next(i, s));
      const SymbolId wantOut =
          context_.liftTargetOutput(target.output(i, s));
      const bool ok = specified_[c] != 0 && next_[c] == wantNext &&
                      out_[c] == wantOut;
      if (!ok) {
        if (reason != nullptr) {
          *reason = "cell (" + context_.inputs().name(si) + ", " +
                    context_.states().name(ss) + ") ";
          if (specified_[c] == 0) {
            *reason += "is unspecified";
          } else {
            *reason += "holds (" + safeName(context_.states(), next_[c]) +
                       ", " + safeName(context_.outputs(), out_[c]) +
                       ") but M' wants (" +
                       context_.states().name(wantNext) + ", " +
                       context_.outputs().name(wantOut) + ")";
          }
        }
        return false;
      }
    }
  }
  return true;
}

Machine MutableMachine::extractTarget() const {
  std::string reason;
  RFSM_CHECK(matchesTarget(&reason),
             "machine does not realize the target: " + reason);
  // The realized machine equals M' on the target domain by the check above.
  return context_.targetMachine();
}

}  // namespace rfsm
