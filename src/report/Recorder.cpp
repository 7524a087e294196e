//===- report/Recorder.cpp - Flight recorder implementation ----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "report/Recorder.h"

#include "analysis/PaperAnalyses.h"
#include "ir/Patterns.h"
#include "ir/Printer.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace am;
using namespace am::report;

RecorderSession::RecorderSession() = default;

RecorderSession::~RecorderSession() {
  if (Installed)
    uninstall();
}

RecorderSession *RecorderSession::current() {
  return telemetry::Session::current().recorder();
}

void RecorderSession::install() {
  telemetry::Session &S = telemetry::Session::current();
  assert(!S.recorder() && "a recorder session is already installed");
  Installed = true;
  Attached = &S;
  CounterBase.clear();
#ifndef AM_DISABLE_STATS
  for (const std::string &Name : counterNames())
    CounterBase.push_back(stats::Registry::get().counterValue(Name));
#endif
  setSolveObserver(&RecorderSession::onSolve, this);
  S.setRecorder(this);
}

void RecorderSession::uninstall() {
  if (Attached) {
    Attached->setRecorder(nullptr);
    Attached = nullptr;
  }
  setSolveObserver(nullptr, nullptr);
  Installed = false;
}

const std::vector<std::string> &RecorderSession::counterNames() {
  // Machine-independent counts only: timers would break the determinism
  // contract (two recordings of the same run must be byte-identical).
  static const std::vector<std::string> Names = {
      "dfa.solves",          "dfa.blocks_processed", "dfa.words_touched",
      "am.rounds",           "am.eliminated",        "flush.inits_deleted",
      "flush.inits_sunk",
  };
  return Names;
}

void RecorderSession::captureCounters(Snapshot &S) const {
#ifndef AM_DISABLE_STATS
  if (!CaptureCounters || CounterBase.empty())
    return;
  const auto &Names = counterNames();
  S.Counters.reserve(Names.size());
  for (size_t Idx = 0; Idx < Names.size(); ++Idx)
    S.Counters.push_back(stats::Registry::get().counterValue(Names[Idx]) -
                         CounterBase[Idx]);
  S.HasCounters = true;
#else
  (void)S;
#endif
}

void RecorderSession::snapshot(const FlowGraph &G, std::string Label,
                               uint32_t Round) {
  Snapshot S;
  S.Label = std::move(Label);
  S.Round = Round;
  S.StartBlock = G.start();
  S.EndBlock = G.end();
  S.Blocks.reserve(G.numBlocks());
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const BasicBlock &BB = G.block(B);
    BlockSnap BS;
    BS.Synthetic = BB.Synthetic;
    BS.Succs.assign(BB.Succs.begin(), BB.Succs.end());
    BS.Instrs.reserve(BB.Instrs.size());
    for (const Instr &I : BB.Instrs)
      BS.Instrs.push_back({I.Id, intern(printInstr(I, G.Vars))});
    S.Blocks.push_back(std::move(BS));
  }
  captureCounters(S);
  Snapshots.push_back(std::move(S));
}

namespace {
std::string patternText(const AssignPat &P, const VarTable &Vars) {
  return Vars.name(P.Lhs) + " := " + printTerm(P.Rhs, Vars);
}

/// A fact vector over the table's stable numbering rendered over the
/// ranked universe: character r is the bit of pattern byRank()[r].
std::string rankedString(const AssignPatternTable &Pats, const BitVector &V) {
  std::string S;
  S.reserve(Pats.byRank().size());
  for (uint32_t Pat : Pats.byRank())
    S.push_back(V.test(Pat) ? '1' : '0');
  return S;
}

} // namespace

void RecorderSession::captureRedundancy(const FlowGraph &G,
                                        const AssignPatternTable &Pats,
                                        const RedundancyAnalysis &A,
                                        uint32_t Round) {
  FactTable T;
  T.Analysis = "redundancy";
  T.Pass = "rae";
  T.Round = Round;
  T.Solve = A.solveSerial();
  // The universe a fresh numbering of this snapshot would have.
  for (uint32_t Pat : Pats.byRank())
    T.Universe.push_back(intern(patternText(Pats.pattern(Pat), G.Vars)));
  T.Rows.reserve(G.numBlocks());
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    T.Rows.push_back({B, rankedString(Pats, A.entry(B)),
                      rankedString(Pats, A.exit(B))});
  attributeSolve(T.Solve, "rae", Round);
  Facts.push_back(std::move(T));
}

void RecorderSession::captureHoistability(const FlowGraph &G,
                                          const AssignPatternTable &Pats,
                                          const HoistabilityAnalysis &A,
                                          uint32_t Round) {
  FactTable T;
  T.Analysis = "hoistability";
  T.Pass = "aht";
  T.Round = Round;
  T.Solve = A.solveSerial();
  // The universe a fresh numbering of this snapshot would have.
  for (uint32_t Pat : Pats.byRank())
    T.Universe.push_back(intern(patternText(Pats.pattern(Pat), G.Vars)));
  FactTable::Extra LocBlocked{"LOC-BLOCKED", {}};
  FactTable::Extra LocHoistable{"LOC-HOISTABLE", {}};
  FactTable::Extra NInsert{"N-INSERT", {}};
  FactTable::Extra XInsert{"X-INSERT", {}};
  T.Rows.reserve(G.numBlocks());
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    T.Rows.push_back({B, rankedString(Pats, A.entryHoistable(B)),
                      rankedString(Pats, A.exitHoistable(B))});
    LocBlocked.PerBlock.push_back(rankedString(Pats, A.locBlocked(B)));
    LocHoistable.PerBlock.push_back(rankedString(Pats, A.locHoistable(B)));
    NInsert.PerBlock.push_back(rankedString(Pats, A.entryInsert(B)));
    XInsert.PerBlock.push_back(rankedString(Pats, A.exitInsert(B)));
  }
  T.Extras.push_back(std::move(LocBlocked));
  T.Extras.push_back(std::move(LocHoistable));
  T.Extras.push_back(std::move(NInsert));
  T.Extras.push_back(std::move(XInsert));
  attributeSolve(T.Solve, "aht", Round);
  Facts.push_back(std::move(T));
}

void RecorderSession::captureFlush(const FlowGraph &G, const FlushAnalysis &A) {
  const FlushUniverse &U = A.universe();
  std::vector<uint32_t> Universe;
  Universe.reserve(U.size());
  for (size_t Idx = 0; Idx < U.size(); ++Idx)
    Universe.push_back(intern(G.Vars.name(U.temp(Idx)) + " := " +
                              printTerm(U.expr(Idx), G.Vars)));

  auto Capture = [&](const char *Analysis, const DataflowResult &R) {
    FactTable T;
    T.Analysis = Analysis;
    T.Pass = "flush";
    T.Solve = R.SolveSerial;
    T.Universe = Universe;
    T.Rows.reserve(G.numBlocks());
    for (BlockId B = 0; B < G.numBlocks(); ++B)
      T.Rows.push_back({B, R.entry(B).toString(), R.exit(B).toString()});
    attributeSolve(T.Solve, "flush", 0);
    Facts.push_back(std::move(T));
  };
  Capture("delayability", A.delayability());
  Capture("usability", A.usability());
}

void RecorderSession::attributeSolve(uint64_t Serial, const char *Pass,
                                     uint32_t Round) {
  if (Serial == 0)
    return;
  for (SolveRecord &R : Solves)
    if (R.Serial == Serial) {
      R.Label = Pass;
      R.Round = Round;
    }
}

void RecorderSession::onSolve(const SolveInfo &Info, void *Ctx) {
  auto *Self = static_cast<RecorderSession *>(Ctx);
  SolveRecord R;
  R.Serial = Info.Serial;
  R.Bits = Info.Bits;
  R.Blocks = Info.Blocks;
  R.BlocksProcessed = Info.BlocksProcessed;
  R.DirtyClosure = Info.DirtyClosure;
  R.Path = static_cast<uint8_t>(Info.P);
  R.Forward = Info.Forward;
  // Provisional attribution: the most recent pipeline point.  The capture
  // hooks re-attribute analysis solves precisely (by serial) once the
  // analysis identifies itself — a phase's solves happen *before* its own
  // snapshot, so the provisional label is the preceding point's.
  if (!Self->Snapshots.empty()) {
    R.Label = Self->Snapshots.back().Label;
    R.Round = Self->Snapshots.back().Round;
  }
  Self->Solves.push_back(std::move(R));
}

SnapshotDiff RecorderSession::diff(size_t FromIdx, size_t ToIdx) const {
  assert(FromIdx < Snapshots.size() && ToIdx < Snapshots.size());
  const Snapshot &From = Snapshots[FromIdx];
  const Snapshot &To = Snapshots[ToIdx];

  struct Loc {
    uint32_t Block, Index, Text;
  };
  std::unordered_map<uint32_t, Loc> FromById;
  SnapshotDiff D;

  for (uint32_t B = 0; B < From.Blocks.size(); ++B)
    for (uint32_t Idx = 0; Idx < From.Blocks[B].Instrs.size(); ++Idx) {
      const InstrSnap &I = From.Blocks[B].Instrs[Idx];
      if (I.Id == 0)
        ++D.UnkeyedFrom;
      else
        FromById[I.Id] = {B, Idx, I.Text};
    }

  for (uint32_t B = 0; B < To.Blocks.size(); ++B)
    for (uint32_t Idx = 0; Idx < To.Blocks[B].Instrs.size(); ++Idx) {
      const InstrSnap &I = To.Blocks[B].Instrs[Idx];
      if (I.Id == 0) {
        ++D.UnkeyedTo;
        continue;
      }
      auto It = FromById.find(I.Id);
      if (It == FromById.end()) {
        D.Inserted.push_back({I.Id, B, Idx});
        continue;
      }
      const Loc &Old = It->second;
      if (Old.Text != I.Text)
        D.Rewritten.push_back({I.Id, B, Idx, Old.Text, I.Text});
      if (Old.Block != B || Old.Index != Idx)
        D.Moved.push_back({I.Id, Old.Block, Old.Index, B, Idx});
      FromById.erase(It);
    }

  // Whatever survives in the map exists only in the older snapshot.
  for (const auto &[Id, Old] : FromById)
    D.Deleted.push_back({Id, Old.Block, Old.Index});
  std::sort(D.Deleted.begin(), D.Deleted.end(),
            [](const SnapshotDiff::Pos &A, const SnapshotDiff::Pos &B) {
              return A.Block != B.Block ? A.Block < B.Block
                                        : A.Index < B.Index;
            });
  return D;
}

bool RecorderSession::resolvesId(uint32_t Id) const {
  if (Id == 0)
    return false;
  for (const Snapshot &S : Snapshots)
    for (const BlockSnap &B : S.Blocks)
      for (const InstrSnap &I : B.Instrs)
        if (I.Id == Id)
          return true;
  return false;
}

//===----------------------------------------------------------------------===//
// JSON emission
//===----------------------------------------------------------------------===//

std::unordered_map<uint64_t, uint64_t> RecorderSession::serialMap(
    const std::vector<remarks::Remark> *Remarks) const {
  // Process-wide solve serials drift across runs of the same program
  // inside one process (tests, repeated solves), so every rendering
  // rebases them to 1.. in first-observation order over the document:
  // facts, then solves, then remarks.
  std::unordered_map<uint64_t, uint64_t> Map;
  auto Add = [&Map](uint64_t Raw) {
    if (Raw != 0)
      Map.try_emplace(Raw, Map.size() + 1);
  };
  for (const FactTable &T : Facts)
    Add(T.Solve);
  for (const SolveRecord &R : Solves)
    Add(R.Serial);
  if (Remarks)
    for (const remarks::Remark &R : *Remarks)
      Add(R.Solve);
  return Map;
}

namespace {

/// Looks \p Raw up in a serialMap(); unknown serials map to 0 rather than
/// leaking the raw process-wide value.
uint64_t mapSerial(const std::unordered_map<uint64_t, uint64_t> &Serials,
                   uint64_t Raw) {
  auto It = Serials.find(Raw);
  return It == Serials.end() ? 0 : It->second;
}

void emitDiff(json::Writer &W, const SnapshotDiff &D,
              const RecorderSession &S) {
  W.beginObject();
  W.key("inserted").beginArray();
  for (const auto &P : D.Inserted) {
    W.beginObject();
    W.key("id").value(static_cast<uint64_t>(P.Id));
    W.key("block").value(static_cast<uint64_t>(P.Block));
    W.key("index").value(static_cast<uint64_t>(P.Index));
    W.endObject();
  }
  W.endArray();
  W.key("deleted").beginArray();
  for (const auto &P : D.Deleted) {
    W.beginObject();
    W.key("id").value(static_cast<uint64_t>(P.Id));
    W.key("block").value(static_cast<uint64_t>(P.Block));
    W.key("index").value(static_cast<uint64_t>(P.Index));
    W.endObject();
  }
  W.endArray();
  W.key("moved").beginArray();
  for (const auto &M : D.Moved) {
    W.beginObject();
    W.key("id").value(static_cast<uint64_t>(M.Id));
    W.key("from_block").value(static_cast<uint64_t>(M.FromBlock));
    W.key("from_index").value(static_cast<uint64_t>(M.FromIndex));
    W.key("to_block").value(static_cast<uint64_t>(M.ToBlock));
    W.key("to_index").value(static_cast<uint64_t>(M.ToIndex));
    W.endObject();
  }
  W.endArray();
  W.key("rewritten").beginArray();
  for (const auto &R : D.Rewritten) {
    W.beginObject();
    W.key("id").value(static_cast<uint64_t>(R.Id));
    W.key("block").value(static_cast<uint64_t>(R.Block));
    W.key("index").value(static_cast<uint64_t>(R.Index));
    W.key("old").value(S.text(R.OldText));
    W.key("new").value(S.text(R.NewText));
    W.endObject();
  }
  W.endArray();
  if (D.UnkeyedFrom || D.UnkeyedTo) {
    W.key("unkeyed_from").value(static_cast<uint64_t>(D.UnkeyedFrom));
    W.key("unkeyed_to").value(static_cast<uint64_t>(D.UnkeyedTo));
  }
  W.endObject();
}

void emitRemark(json::Writer &W, const remarks::Remark &R,
                const std::unordered_map<uint64_t, uint64_t> &Serials) {
  // Key-compatible with remarks::Sink::toJsonString(), except "solve" is
  // normalized so the whole facts document is run-independent.
  W.beginObject();
  W.key("kind").value(remarks::kindName(R.K));
  if (R.Act != remarks::Action::None)
    W.key("action").value(R.Act == remarks::Action::Remove ? "remove"
                                                           : "insert");
  W.key("pass").value(R.Pass);
  W.key("round").value(static_cast<uint64_t>(R.Round));
  W.key("instr_id").value(static_cast<uint64_t>(R.InstrId));
  if (R.Block != 0xFFFFFFFFu)
    W.key("block").value(static_cast<uint64_t>(R.Block));
  if (R.InstrIndex != 0xFFFFFFFFu)
    W.key("index").value(static_cast<uint64_t>(R.InstrIndex));
  W.key("terminal").value(R.Terminal);
  if (R.Place != remarks::Placement::None)
    W.key("placement").value(remarks::placementName(R.Place));
  if (R.FromBlock != 0xFFFFFFFFu)
    W.key("from_block").value(static_cast<uint64_t>(R.FromBlock));
  if (!R.Pattern.empty())
    W.key("pattern").value(R.Pattern);
  if (!R.Var.empty())
    W.key("var").value(R.Var);
  if (!R.Parents.empty()) {
    W.key("parents").beginArray();
    for (uint32_t P : R.Parents)
      W.value(static_cast<uint64_t>(P));
    W.endArray();
  }
  if (!R.NewIds.empty()) {
    W.key("new_ids").beginArray();
    for (uint32_t N : R.NewIds)
      W.value(static_cast<uint64_t>(N));
    W.endArray();
  }
  if (R.Solve != 0)
    W.key("solve").value(mapSerial(Serials, R.Solve));
  if (!R.Facts.empty()) {
    W.key("facts").beginObject();
    for (const auto &[Name, Value] : R.Facts)
      W.key(Name).value(Value);
    W.endObject();
  }
  W.endObject();
}

} // namespace

std::string RecorderSession::toJsonString(
    const std::vector<remarks::Remark> *Remarks) const {
  const std::unordered_map<uint64_t, uint64_t> Serials = serialMap(Remarks);

  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.key("version").value(static_cast<uint64_t>(1));

  W.key("counter_names").beginArray();
  for (const std::string &Name : counterNames())
    W.value(Name);
  W.endArray();

  W.key("snapshots").beginArray();
  for (const Snapshot &S : Snapshots) {
    W.beginObject();
    W.key("label").value(S.Label);
    if (S.Round)
      W.key("round").value(static_cast<uint64_t>(S.Round));
    W.key("start").value(static_cast<uint64_t>(S.StartBlock));
    W.key("end").value(static_cast<uint64_t>(S.EndBlock));
    W.key("blocks").beginArray();
    for (const BlockSnap &B : S.Blocks) {
      W.beginObject();
      if (B.Synthetic)
        W.key("synthetic").value(true);
      W.key("succs").beginArray();
      for (uint32_t Succ : B.Succs)
        W.value(static_cast<uint64_t>(Succ));
      W.endArray();
      W.key("instrs").beginArray();
      for (const InstrSnap &I : B.Instrs) {
        W.beginObject();
        W.key("id").value(static_cast<uint64_t>(I.Id));
        W.key("text").value(text(I.Text));
        W.endObject();
      }
      W.endArray();
      W.endObject();
    }
    W.endArray();
    if (S.HasCounters) {
      W.key("counters").beginArray();
      for (uint64_t C : S.Counters)
        W.value(C);
      W.endArray();
    }
    W.endObject();
  }
  W.endArray();

  W.key("diffs").beginArray();
  for (size_t Idx = 1; Idx < Snapshots.size(); ++Idx) {
    W.beginObject();
    W.key("from").value(static_cast<uint64_t>(Idx - 1));
    W.key("to").value(static_cast<uint64_t>(Idx));
    W.key("changes");
    emitDiff(W, diff(Idx - 1, Idx), *this);
    W.endObject();
  }
  W.endArray();

  W.key("facts").beginArray();
  for (const FactTable &T : Facts) {
    W.beginObject();
    W.key("analysis").value(T.Analysis);
    W.key("pass").value(T.Pass);
    if (T.Round)
      W.key("round").value(static_cast<uint64_t>(T.Round));
    if (T.Solve)
      W.key("solve").value(mapSerial(Serials, T.Solve));
    W.key("universe").beginArray();
    for (uint32_t U : T.Universe)
      W.value(text(U));
    W.endArray();
    W.key("blocks").beginArray();
    for (const FactTable::Row &R : T.Rows) {
      W.beginObject();
      W.key("block").value(static_cast<uint64_t>(R.Block));
      W.key("entry").value(R.Entry);
      W.key("exit").value(R.Exit);
      for (const FactTable::Extra &E : T.Extras)
        W.key(E.Name).value(E.PerBlock[R.Block]);
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();

  W.key("solves").beginArray();
  for (const SolveRecord &R : Solves) {
    W.beginObject();
    W.key("serial").value(mapSerial(Serials, R.Serial));
    W.key("label").value(R.Label);
    if (R.Round)
      W.key("round").value(static_cast<uint64_t>(R.Round));
    W.key("bits").value(static_cast<uint64_t>(R.Bits));
    W.key("blocks").value(static_cast<uint64_t>(R.Blocks));
    W.key("direction").value(R.Forward ? "forward" : "backward");
    const char *Path = R.Path == 2 ? "cached"
                       : R.Path == 1 ? "incremental"
                                     : "full";
    W.key("path").value(Path);
    W.key("blocks_processed").value(R.BlocksProcessed);
    W.key("dirty_closure").value(static_cast<uint64_t>(R.DirtyClosure));
    W.endObject();
  }
  W.endArray();

  if (Remarks) {
    W.key("remarks").beginArray();
    for (const remarks::Remark &R : *Remarks)
      emitRemark(W, R, Serials);
    W.endArray();
  }

  W.endObject();
  return Out;
}
