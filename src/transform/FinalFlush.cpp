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
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "transform/AssignmentMotion.h"

using namespace am;

namespace {

/// Rewrites \p I's use of temp \p H to \p Expr if it is the only use and
/// sits where an expression can stand; returns whether it did.
bool reconstructUse(Instr &I, VarId H, const Term &Expr) {
  unsigned Uses = 0;
  I.forEachUsedVar([&](VarId V) { Uses += V == H; });
  Term *Use = Uses != 1                              ? nullptr
              : I.isAssign() && I.Rhs.isVarAtom(H)   ? &I.Rhs
              : I.isBranch() && I.CondL.isVarAtom(H) ? &I.CondL
              : I.isBranch() && I.CondR.isVarAtom(H) ? &I.CondR
                                                     : nullptr;
  if (Use)
    *Use = Expr;
  return Use;
}

} // namespace

bool am::runFinalFlush(FlowGraph &G) {
  AmContext Ctx;
  return runFinalFlush(G, Ctx);
}

bool am::runFinalFlush(FlowGraph &G, AmContext &Ctx) {
  assert(!G.hasCriticalEdges() &&
         "the final flush requires split critical edges");
  AM_SPAN(Span, "flush");
  AM_REMARK_PASS_SCOPE("flush");
  bool Remarks = AM_REMARKS_ENABLED();
  if (Remarks)
    ensureInstrIds(G);
  AM_STAT_COUNTER(NumFlushes, "flush.runs");
  AM_STAT_COUNTER(NumInitsDeleted, "flush.inits_deleted");
  AM_STAT_COUNTER(NumInitsSunk, "flush.inits_sunk");
  AM_STAT_INC(NumFlushes);

  FlushAnalysis Analysis =
      FlushAnalysis::run(G, Ctx.redundancySolver(), Ctx.hoistSolver());
  const FlushUniverse &U = Analysis.universe();
  Span.arg("temps", U.size());
  if (report::RecorderSession *Rec = report::RecorderSession::current())
    Rec->captureFlush(G, Analysis);
  if (U.size() == 0)
    return false;

  // Phase 1: every block's latest points, against the frozen graph.
  std::vector<LatestPoint> Points;
  std::vector<size_t> BlockBegin(G.numBlocks() + 1);
  {
    AM_SPAN(PlanSpan, "flush.plan");
    LatestPlacement Walk(Analysis.delayability(), Analysis.usability());
    for (BlockId B = 0; B < G.numBlocks(); ++B) {
      BlockBegin[B] = Points.size();
      Analysis.place(Walk, B,
                     [&](const LatestPoint &P) { Points.push_back(P); });
    }
    BlockBegin.back() = Points.size();
  }

  // Phase 2: rebuild each block.  Every original initialization instance
  // is deleted; the latest points re-materialize exactly the justified
  // ones.  "Sunk" counts the re-materialized initializations, "deleted"
  // the dropped instances — the difference is the paper's "final flush
  // deletes unjustified initializations" claim, made measurable.  Both
  // count only committed rebuilds, so the counters (and the remark
  // stream) describe what happened to the program.
  bool Changed = false;
  uint64_t InitsSunk = 0, InitsDeleted = 0;
  BlockRebuilder Rebuild(Remarks ? U.size() : 0);
  std::vector<BlockRebuilder::Insert> Inits, Rewrites;
  std::vector<const char *> Vias; // per init, for remarks
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const auto &Instrs = G.block(B).Instrs;
    size_t N = Instrs.size();
    Inits.clear();
    Rewrites.clear();
    Vias.clear();
    auto AddInit = [&](size_t Idx, size_t T, const char *Via) {
      Inits.push_back({static_cast<uint32_t>(Idx), static_cast<uint32_t>(T)});
      Vias.push_back(Via);
    };
    for (size_t P = BlockBegin[B], End; P < BlockBegin[B + 1]; P = End) {
      size_t Idx = Points[P].Idx;
      bool Reconstructs = false;
      for (End = P; End < BlockBegin[B + 1] && Points[End].Idx == Idx; ++End) {
        if (Points[End].K == LatestKind::Place)
          AddInit(Idx, Points[End].Bit, Idx == N ? "X-INIT" : "N-INIT");
        Reconstructs |= Points[End].K == LatestKind::Reconstruct;
      }
      if (!Reconstructs)
        continue;
      // RECONSTRUCT rewrites a single use in a replaceable position to the
      // expression, one temporary after the other; any other use keeps
      // its temporary, initialized right before the instruction.  So does
      // a use by a deleted instance: its re-materialization reads it.
      Instr I = Instrs[Idx];
      bool Instance = U.instanceOf(I) != FlushUniverse::npos;
      for (size_t Q = P; Q < End; ++Q) {
        size_t T = Points[Q].Bit;
        if (Points[Q].K != LatestKind::Reconstruct)
          continue;
        if (!Instance && reconstructUse(I, U.temp(T), U.expr(T)))
          Rewrites.push_back(
              {static_cast<uint32_t>(Idx), static_cast<uint32_t>(T)});
        else
          AddInit(Idx, T, "RECONSTRUCT-multi-use");
      }
    }

    uint64_t BlockDeleted = 0;
    auto Make = [&](size_t K, size_t NewIdx) {
      size_t T = Inits[K].second;
      Instr New = Instr::assign(U.temp(T), U.expr(T));
      if (Remarks) {
        New.Id = remarks::Sink::get().freshId();
        remarks::Remark &R = Rebuild.remark(
            describe(remarks::Kind::SinkInit, G, B, NewIdx, New,
                     Analysis.delayability().SolveSerial),
            T, BlockRebuilder::Role::Insert);
        if (Inits[K].first == N)
          R.Place = remarks::Placement::Exit;
        R.fact("via", Vias[K]);
      }
      return New;
    };
    auto Remove = [&](size_t Idx) {
      size_t T = U.instanceOf(Instrs[Idx]);
      if (T == FlushUniverse::npos)
        return false;
      ++BlockDeleted;
      if (Remarks) {
        remarks::Remark &R = Rebuild.remark(
            describe(remarks::Kind::DeleteInit, G, B, Idx, Instrs[Idx],
                     Analysis.delayability().SolveSerial),
            T, BlockRebuilder::Role::Remove);
        R.Terminal = true;
        R.fact("IS-INST", "1");
      }
      return true;
    };
    auto Rewrite = [&](size_t K, Instr &I) {
      auto [Idx, T] = Rewrites[K];
      reconstructUse(I, U.temp(T), U.expr(T));
      if (Remarks) {
        // The rewritten instruction keeps its id.
        remarks::Remark &R = Rebuild.remark(
            describe(remarks::Kind::Reconstruct, G, B, Idx, Instrs[Idx],
                     Analysis.usability().SolveSerial),
            T, BlockRebuilder::Role::Other);
        R.Var = G.Vars.name(U.temp(T));
        R.fact("RECONSTRUCT", "1").fact("rewritten", printInstr(I, G.Vars));
      }
    };
    if (Rebuild.rebuild(G, B, Inits, Make, Remove, Rewrites, Rewrite)) {
      Changed = true;
      InitsSunk += Inits.size();
      InitsDeleted += BlockDeleted;
    }
  }
  Rebuild.publish();

  AM_STAT_ADD(NumInitsDeleted, InitsDeleted);
  AM_STAT_ADD(NumInitsSunk, InitsSunk);
  Span.arg("inits_deleted", InitsDeleted);
  Span.arg("inits_sunk", InitsSunk);
  Span.arg("changed", Changed ? 1 : 0);
  return Changed;
}
