//===- transform/FinalFlush.cpp - Final flush implementation ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/FinalFlush.h"
#include "analysis/PaperAnalyses.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "report/Recorder.h"
#include "support/Remarks.h"
#include "support/Stats.h"
#include "support/Telemetry.h"

using namespace am;

namespace {

/// True if the single use of temp \p H in \p I sits in a position where the
/// original expression can be reconstructed in place.
bool reconstructUse(Instr &I, VarId H, const Term &Expr) {
  if (I.isAssign() && I.Rhs.isVarAtom(H)) {
    I.Rhs = Expr;
    return true;
  }
  if (I.isBranch()) {
    if (I.CondL.isVarAtom(H)) {
      I.CondL = Expr;
      return true;
    }
    if (I.CondR.isVarAtom(H)) {
      I.CondR = Expr;
      return true;
    }
  }
  return false;
}

unsigned countUses(const Instr &I, VarId H) {
  unsigned N = 0;
  I.forEachUsedVar([&](VarId V) { N += (V == H); });
  return N;
}

/// A remark buffered during one block's rebuild, published only if the
/// rebuild commits (see AssignmentHoisting.cpp for the rationale).
struct PendingRemark {
  remarks::Remark R;
  size_t TempIdx; // flush-universe index, for parent linking
  bool IsSink;    // SinkInit (Parents filled after the loop)
};

} // namespace

bool am::runFinalFlush(FlowGraph &G) {
  assert(!G.hasCriticalEdges() &&
         "the final flush requires split critical edges");
  AM_SPAN(Span, "flush");
  AM_REMARK_PASS_SCOPE("flush");
  if (AM_REMARKS_ENABLED())
    ensureInstrIds(G);
  AM_STAT_COUNTER(NumFlushes, "flush.runs");
  AM_STAT_COUNTER(NumInitsDeleted, "flush.inits_deleted");
  AM_STAT_COUNTER(NumInitsSunk, "flush.inits_sunk");
  AM_STAT_INC(NumFlushes);

  FlushAnalysis Analysis = FlushAnalysis::run(G);
  const FlushUniverse &U = Analysis.universe();
  Span.arg("temps", U.size());
  if (report::RecorderSession *Rec = report::RecorderSession::current())
    Rec->captureFlush(G, Analysis);
  if (U.size() == 0)
    return false;

  // Phase 1: record every decision against the frozen graph.
  struct BlockDecision {
    FlushAnalysis::BlockPlan Plan;
    std::vector<size_t> FromPreds; // exit inits realized at succ entries
  };
  std::vector<BlockDecision> Decisions(G.numBlocks());
  {
    AM_SPAN(PlanSpan, "flush.plan");
    for (BlockId B = 0; B < G.numBlocks(); ++B)
      Decisions[B].Plan = Analysis.plan(B);
  }

  // Distribute exit initializations of branching blocks to their
  // successors' entries.  (With split critical edges this cannot actually
  // occur — a successor of a multi-successor block has a unique
  // predecessor, so delayability never stops at such an exit — but the
  // fallback keeps the transformation total.)
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    BlockDecision &D = Decisions[B];
    const Instr *Br = G.block(B).branchInstr();
    if (!Br || D.Plan.InitAtExit.none())
      continue;
    assert(false && "exit initialization at a branching block");
    for (size_t Idx : D.Plan.InitAtExit.setBits())
      for (BlockId S : G.block(B).Succs)
        Decisions[S].FromPreds.push_back(Idx);
    D.Plan.InitAtExit.resetAll();
  }

  // Phase 2: rebuild instruction lists.  "Sunk" counts the justified
  // initializations re-materialized at their latest points; "deleted"
  // counts original initialization instances dropped from the program —
  // the difference is the paper's "final flush deletes unjustified
  // initializations" claim, made measurable.  Both are tallied per block
  // and only accumulated when the rebuild commits, so the counters (and
  // the remark stream) describe what actually happened to the program: a
  // delete+reinsert that reproduces the identical instruction list is a
  // no-op, not one deletion plus one sink.
  bool Changed = false;
  uint64_t InitsSunk = 0, InitsDeleted = 0;
  std::vector<PendingRemark> Accepted;
  // Committed deleted-instance ids per temp; a sunk initialization
  // descends from the original instances the flush dropped.
  std::vector<std::vector<uint32_t>> DeletedIds;
  if (AM_REMARKS_ENABLED())
    DeletedIds.resize(U.size());
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    BasicBlock &BB = G.block(B);
    BlockDecision &D = Decisions[B];

    uint64_t BlockSunk = 0, BlockDeleted = 0;
    std::vector<PendingRemark> Pending;
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB.Instrs.size() + 4);
    auto EmitInit = [&](size_t Idx, remarks::Placement Place,
                        const char *Via) {
      ++BlockSunk;
      NewInstrs.push_back(Instr::assign(U.temp(Idx), U.expr(Idx)));
      if (AM_REMARKS_ENABLED()) {
        Instr &New = NewInstrs.back();
        New.Id = remarks::Sink::get().freshId();
        PendingRemark P;
        P.TempIdx = Idx;
        P.IsSink = true;
        P.R.K = remarks::Kind::SinkInit;
        P.R.InstrId = New.Id;
        P.R.Block = B;
        P.R.InstrIndex = static_cast<uint32_t>(NewInstrs.size() - 1);
        P.R.Place = Place;
        P.R.Pattern = printInstr(New, G.Vars);
        P.R.Var = G.Vars.name(U.temp(Idx));
        P.R.Solve = Analysis.delayability().SolveSerial;
        P.R.fact("via", Via);
        Pending.push_back(std::move(P));
      }
    };

    for (size_t Idx : D.FromPreds)
      EmitInit(Idx, remarks::Placement::FromPred, "X-INIT");

    for (size_t InstrIdx = 0; InstrIdx < BB.Instrs.size(); ++InstrIdx) {
      const Instr &I = BB.Instrs[InstrIdx];
      D.Plan.InitBefore[InstrIdx].forEachSetBit([&](size_t TempIdx) {
        EmitInit(TempIdx, remarks::Placement::None, "N-INIT");
      });
      // Delete every original initialization instance; the latest points
      // re-materialize exactly the ones that are justified.
      size_t Instance = U.instanceOf(I);
      if (Instance != FlushUniverse::npos) {
        ++BlockDeleted;
        if (AM_REMARKS_ENABLED()) {
          PendingRemark P;
          P.TempIdx = Instance;
          P.IsSink = false;
          P.R.K = remarks::Kind::DeleteInit;
          P.R.InstrId = I.Id;
          P.R.Block = B;
          P.R.InstrIndex = static_cast<uint32_t>(InstrIdx);
          P.R.Terminal = true;
          P.R.Pattern = printInstr(I, G.Vars);
          P.R.Var = G.Vars.name(U.temp(P.TempIdx));
          P.R.Solve = Analysis.delayability().SolveSerial;
          P.R.fact("IS-INST", "1");
          Pending.push_back(std::move(P));
        }
        continue;
      }
      Instr NewI = I;
      D.Plan.Reconstruct[InstrIdx].forEachSetBit([&](size_t TempIdx) {
        VarId H = U.temp(TempIdx);
        if (countUses(NewI, H) == 1 &&
            reconstructUse(NewI, H, U.expr(TempIdx))) {
          if (AM_REMARKS_ENABLED()) {
            PendingRemark P;
            P.TempIdx = TempIdx;
            P.IsSink = false;
            P.R.K = remarks::Kind::Reconstruct;
            P.R.InstrId = I.Id; // the rewritten instruction keeps its id
            P.R.Block = B;
            P.R.InstrIndex = static_cast<uint32_t>(InstrIdx);
            P.R.Pattern = printInstr(I, G.Vars);
            P.R.Var = G.Vars.name(H);
            P.R.Solve = Analysis.usability().SolveSerial;
            P.R.fact("RECONSTRUCT", "1")
                .fact("rewritten", printInstr(NewI, G.Vars));
            Pending.push_back(std::move(P));
          }
          return;
        }
        // Multiple or non-replaceable uses: keep the temporary and
        // initialize it here instead.
        EmitInit(TempIdx, remarks::Placement::None, "RECONSTRUCT-multi-use");
      });
      NewInstrs.push_back(std::move(NewI));
    }

    D.Plan.InitAtExit.forEachSetBit([&](size_t TempIdx) {
      EmitInit(TempIdx, remarks::Placement::Exit, "X-INIT");
    });

    if (NewInstrs != BB.Instrs) {
      BB.Instrs = std::move(NewInstrs);
      G.touchBlock(B);
      Changed = true;
      InitsSunk += BlockSunk;
      InitsDeleted += BlockDeleted;
      if (AM_REMARKS_ENABLED()) {
        for (PendingRemark &P : Pending) {
          if (!P.IsSink && P.R.K == remarks::Kind::DeleteInit)
            DeletedIds[P.TempIdx].push_back(P.R.InstrId);
          Accepted.push_back(std::move(P));
        }
      }
    }
  }

  if (AM_REMARKS_ENABLED()) {
    for (PendingRemark &P : Accepted) {
      if (P.IsSink)
        P.R.Parents = DeletedIds[P.TempIdx];
      remarks::Sink::get().add(std::move(P.R));
    }
  }

  AM_STAT_ADD(NumInitsDeleted, InitsDeleted);
  AM_STAT_ADD(NumInitsSunk, InitsSunk);
  Span.arg("inits_deleted", InitsDeleted);
  Span.arg("inits_sunk", InitsSunk);
  Span.arg("changed", Changed ? 1 : 0);
  return Changed;
}
