//===- verify/RemarkVerifier.cpp - Replay remark justifications ----------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The verifier re-drives the uniform pipeline stage by stage, snapshotting
// the graph before every transform invocation and checking the remarks
// that invocation emitted against from-scratch analyses of the snapshot.
// Subject remarks (eliminations, removals, deletions, decompositions,
// reconstructions) are located in the *pre*-stage snapshot by their
// recorded (block, index) and must carry the instruction's stable id;
// insertion remarks (hoist inserts, sunk initializations) are located in
// the *post*-stage graph the same way.
//
//===----------------------------------------------------------------------===//

#include "verify/RemarkVerifier.h"

#include "analysis/PaperAnalyses.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "support/Remarks.h"
#include "transform/AssignmentHoisting.h"
#include "transform/AssignmentMotion.h"
#include "transform/FinalFlush.h"
#include "transform/Initialization.h"
#include "transform/Normalize.h"
#include "transform/RedundantAssignElim.h"

#include <sstream>

using namespace am;
using namespace am::remarks;

namespace {

class Verifier {
public:
  explicit Verifier(RemarkVerifyReport &Report) : Report(Report) {}

  /// Checks the remarks emitted between \p FirstRemark and the current
  /// sink size against \p Before (pre-stage) and \p After (post-stage).
  void checkStage(const char *Stage, size_t FirstRemark,
                  const FlowGraph &Before, const FlowGraph &After) {
    std::vector<Remark> All = Sink::get().remarks();
    for (size_t Idx = FirstRemark; Idx < All.size(); ++Idx)
      checkRemark(Stage, All[Idx], Before, After);
  }

private:
  RemarkVerifyReport &Report;

  void fail(const char *Stage, const Remark &R, const std::string &Why) {
    std::ostringstream OS;
    OS << Stage << ": " << kindName(R.K) << " #" << R.InstrId << " at b"
       << R.Block << "[" << R.InstrIndex << "]";
    if (!R.Pattern.empty())
      OS << " `" << R.Pattern << "`";
    OS << ": " << Why;
    Report.Failures.push_back(OS.str());
    ++Report.Failed;
  }

  /// The instruction a subject remark points at, or nullptr (with a
  /// recorded failure) when the (block, index, id) triple does not
  /// resolve in \p G.
  const Instr *subject(const char *Stage, const Remark &R, const FlowGraph &G,
                       const char *Which) {
    if (R.Block >= G.numBlocks()) {
      fail(Stage, R, std::string("block out of range in ") + Which);
      return nullptr;
    }
    const auto &Instrs = G.block(R.Block).Instrs;
    if (R.InstrIndex >= Instrs.size()) {
      fail(Stage, R, std::string("instruction index out of range in ") + Which);
      return nullptr;
    }
    const Instr &I = Instrs[R.InstrIndex];
    if (I.Id != R.InstrId) {
      fail(Stage, R,
           "instruction id mismatch (found #" + std::to_string(I.Id) +
               std::string(") in ") + Which);
      return nullptr;
    }
    return &I;
  }

  /// Pattern-table index of the remark's pattern text in a fresh table
  /// over \p G, or npos.  Remarks carry the printed pattern, which is the
  /// stable identity across snapshots (bit indices are not).
  static size_t patternByText(const FlowGraph &G,
                              const AssignPatternTable &Pats,
                              const std::string &Text) {
    for (size_t Idx = 0; Idx < Pats.size(); ++Idx) {
      const AssignPat &P = Pats.pattern(Idx);
      if (G.Vars.name(P.Lhs) + " := " + printTerm(P.Rhs, G.Vars) == Text)
        return Idx;
    }
    return AssignPatternTable::npos;
  }

  void checkRemark(const char *Stage, const Remark &R, const FlowGraph &Before,
                   const FlowGraph &After) {
    ++Report.Checked;
    switch (R.K) {
    case Kind::Decompose:
      checkDecompose(Stage, R, Before);
      return;
    case Kind::Eliminate:
      checkEliminate(Stage, R, Before);
      return;
    case Kind::Hoist:
      if (R.Act == Action::Remove)
        checkHoistRemove(Stage, R, Before);
      else
        checkHoistInsert(Stage, R, Before, After);
      return;
    case Kind::Blocked:
      checkBlocked(Stage, R, Before);
      return;
    case Kind::DeleteInit:
      checkDeleteInit(Stage, R, Before);
      return;
    case Kind::SinkInit:
      checkSinkInit(Stage, R, Before, After);
      return;
    case Kind::Reconstruct:
      checkReconstruct(Stage, R, Before);
      return;
    case Kind::Rollback:
      // Administrative: records that a guarded pipeline discarded a pass's
      // result.  No position or facts to cross-check against the graphs.
      return;
    }
  }

  void checkDecompose(const char *Stage, const Remark &R,
                      const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    if (R.Terminal) {
      if (!I->isAssign() || !I->Rhs.isNonTrivial())
        fail(Stage, R, "decomposed assignment has no non-trivial rhs");
      return;
    }
    if (!I->isBranch() || (!I->CondL.isNonTrivial() && !I->CondR.isNonTrivial()))
      fail(Stage, R, "decomposed branch has no non-trivial operand");
  }

  void checkEliminate(const char *Stage, const Remark &R,
                      const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    AssignPatternTable Pats;
    Pats.build(Before);
    size_t Pat = Pats.occurrence(*I);
    if (Pat == AssignPatternTable::npos) {
      fail(Stage, R, "eliminated instruction is not a pattern occurrence");
      return;
    }
    RedundancyAnalysis Fresh = RedundancyAnalysis::run(Before, Pats);
    DataflowResult::InstrFacts Facts = Fresh.facts(R.Block);
    if (!Facts.Before[R.InstrIndex].test(Pat))
      fail(Stage, R, "N-REDUNDANT not set in a fresh redundancy analysis");
  }

  void checkHoistRemove(const char *Stage, const Remark &R,
                        const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    AssignPatternTable Pats;
    Pats.build(Before);
    size_t Pat = Pats.occurrence(*I);
    if (Pat == AssignPatternTable::npos) {
      fail(Stage, R, "removed instruction is not a pattern occurrence");
      return;
    }
    HoistabilityAnalysis Fresh = HoistabilityAnalysis::run(Before, Pats);
    if (!Fresh.locHoistable(R.Block).test(Pat)) {
      fail(Stage, R, "LOC-HOISTABLE not set in a fresh hoistability analysis");
      return;
    }
    // A hoisting candidate must be the first unblocked occurrence: no
    // earlier instruction of the block may block the pattern.
    const auto &Instrs = Before.block(R.Block).Instrs;
    for (size_t Idx = 0; Idx < R.InstrIndex; ++Idx) {
      if (Pats.blocks(Instrs[Idx], Pat)) {
        fail(Stage, R, "a preceding instruction blocks the removed pattern");
        return;
      }
    }
  }

  void checkHoistInsert(const char *Stage, const Remark &R,
                        const FlowGraph &Before, const FlowGraph &After) {
    if (!subject(Stage, R, After, "post-stage graph"))
      return;
    AssignPatternTable Pats;
    Pats.build(Before);
    size_t Pat = patternByText(Before, Pats, R.Pattern);
    if (Pat == AssignPatternTable::npos) {
      fail(Stage, R, "inserted pattern does not occur in the pre-stage graph");
      return;
    }
    HoistabilityAnalysis Fresh = HoistabilityAnalysis::run(Before, Pats);
    switch (R.Place) {
    case Placement::Entry:
      if (!Fresh.entryInsert(R.Block).test(Pat))
        fail(Stage, R, "N-INSERT not set in a fresh hoistability analysis");
      return;
    case Placement::Exit:
      if (!Fresh.exitInsert(R.Block).test(Pat))
        fail(Stage, R, "X-INSERT not set in a fresh hoistability analysis");
      return;
    case Placement::BeforeBranch: {
      if (!Fresh.exitInsert(R.Block).test(Pat)) {
        fail(Stage, R, "X-INSERT not set in a fresh hoistability analysis");
        return;
      }
      const Instr *Br = Before.block(R.Block).branchInstr();
      if (Br && Pats.blocks(*Br, Pat))
        fail(Stage, R, "branch blocks the pattern; insertion should have "
                       "moved to the successors");
      return;
    }
    case Placement::FromPred: {
      // Realized at this block's entry on behalf of a branching
      // predecessor whose condition blocks the pattern.
      BlockId Pred = R.FromBlock;
      if (Pred >= Before.numBlocks()) {
        fail(Stage, R, "from_block out of range");
        return;
      }
      if (!Fresh.exitInsert(Pred).test(Pat)) {
        fail(Stage, R, "X-INSERT not set at the branching predecessor");
        return;
      }
      const Instr *Br = Before.block(Pred).branchInstr();
      if (!Br) {
        fail(Stage, R, "from_block has no branch instruction");
        return;
      }
      if (!Pats.blocks(*Br, Pat))
        fail(Stage, R, "predecessor branch does not block the pattern");
      return;
    }
    case Placement::None:
      fail(Stage, R, "hoist insertion without a placement");
      return;
    }
  }

  void checkBlocked(const char *Stage, const Remark &R,
                    const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    AssignPatternTable Pats;
    Pats.build(Before);
    size_t Pat = Pats.occurrence(*I);
    if (Pat == AssignPatternTable::npos) {
      fail(Stage, R, "blocked instruction is not a pattern occurrence");
      return;
    }
    const auto &Instrs = Before.block(R.Block).Instrs;
    for (size_t Idx = 0; Idx < R.InstrIndex; ++Idx)
      if (Pats.blocks(Instrs[Idx], Pat))
        return; // justified: an earlier instruction blocks the pattern
    fail(Stage, R, "no preceding instruction blocks the pattern");
  }

  void checkDeleteInit(const char *Stage, const Remark &R,
                       const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    FlushUniverse U;
    U.build(Before);
    if (U.instanceOf(*I) == FlushUniverse::npos)
      fail(Stage, R, "IS-INST does not hold: not an initialization instance");
  }

  /// Resolves the temp named by the remark's Var in the fresh universe.
  size_t tempOf(const char *Stage, const Remark &R, const FlowGraph &G,
                const FlushUniverse &U) {
    VarId V = G.Vars.lookup(R.Var);
    if (V == VarId::Invalid) {
      fail(Stage, R, "unknown temporary `" + R.Var + "`");
      return FlushUniverse::npos;
    }
    size_t Idx = U.indexOfTemp(V);
    if (Idx == FlushUniverse::npos)
      fail(Stage, R, "`" + R.Var + "` is not in the flush universe");
    return Idx;
  }

  void checkSinkInit(const char *Stage, const Remark &R,
                     const FlowGraph &Before, const FlowGraph &After) {
    if (!subject(Stage, R, After, "post-stage graph"))
      return;
    FlushAnalysis Fresh = FlushAnalysis::run(Before);
    size_t TempIdx = tempOf(Stage, R, Before, Fresh.universe());
    if (TempIdx == FlushUniverse::npos)
      return;
    const std::string &Via = R.factValue("via");
    // The remark's (block, index) locate the initialization in the
    // rebuilt block, so the justification is checked at the temp level:
    // the cited placement predicate must fire for this temp somewhere in
    // the recorded block of the pre-stage plan.
    if (R.Block >= Before.numBlocks()) {
      fail(Stage, R, "block out of range in pre-stage graph");
      return;
    }
    FlushAnalysis::BlockPlan Plan = Fresh.plan(R.Block);
    if (Via == "N-INIT" || Via == "RECONSTRUCT-multi-use") {
      for (SparseRows::Row Bits :
           Via == "N-INIT" ? Plan.InitBefore : Plan.Reconstruct)
        if (Bits.test(TempIdx))
          return;
      fail(Stage, R,
           Via + " does not fire for this temp in a fresh flush analysis");
      return;
    }
    if (Via == "X-INIT") {
      if (!Plan.InitAtExit.test(TempIdx))
        fail(Stage, R, "X-INIT not set in a fresh flush analysis");
      return;
    }
    fail(Stage, R, "unknown via fact `" + Via + "`");
  }

  void checkReconstruct(const char *Stage, const Remark &R,
                        const FlowGraph &Before) {
    const Instr *I = subject(Stage, R, Before, "pre-stage graph");
    if (!I)
      return;
    FlushAnalysis Fresh = FlushAnalysis::run(Before);
    size_t TempIdx = tempOf(Stage, R, Before, Fresh.universe());
    if (TempIdx == FlushUniverse::npos)
      return;
    FlushAnalysis::BlockPlan Plan = Fresh.plan(R.Block);
    if (!Plan.Reconstruct[R.InstrIndex].test(TempIdx))
      fail(Stage, R, "RECONSTRUCT not set in a fresh flush analysis");
  }
};

} // namespace

RemarkVerifyReport am::verifyUniformRemarks(const FlowGraph &Input) {
  RemarkVerifyReport Report;
  CollectionScope Collect(true);
  Sink::get().clear();

  FlowGraph Work = Input;
  ensureInstrIds(Work);

  // Mirror runUniformEmAm with default options, pausing between stages.
  removeSkips(Work);
  Work.splitCriticalEdges();
  if (Work.hasCriticalEdges()) {
    simplify(Work);
    Report.Output = std::move(Work);
    return Report;
  }

  Verifier V(Report);
  auto RunStage = [&](const char *Stage, auto &&Fn) {
    FlowGraph Before = Work;
    size_t Watermark = Sink::get().size();
    Fn();
    V.checkStage(Stage, Watermark, Before, Work);
  };

  RunStage("init", [&] { runInitializationPhase(Work); });

  // The AM fixpoint, stage-checked per pass per round.  The loop mirrors
  // runAssignmentMotionPhase: rae then aht, shared incremental context,
  // until neither changes.  The defensive cap mirrors the driver's.
  AmContext Ctx;
  uint64_t Instrs = Work.numInstrs();
  uint64_t Cap = Instrs * Instrs + Work.numBlocks() + 16;
  for (uint64_t Round = 1; Round <= Cap; ++Round) {
    Sink::get().setRound(static_cast<uint32_t>(Round));
    unsigned Eliminated = 0;
    RunStage("rae",
             [&] { Eliminated = runRedundantAssignmentElimination(Work, Ctx); });
    bool Hoisted = false;
    RunStage("aht", [&] { Hoisted = runAssignmentHoisting(Work, Ctx); });
    if (Eliminated == 0 && !Hoisted)
      break;
  }
  Sink::get().setRound(0);

  RunStage("flush", [&] { runFinalFlush(Work); });

  simplify(Work);
  Report.Output = std::move(Work);
  return Report;
}
