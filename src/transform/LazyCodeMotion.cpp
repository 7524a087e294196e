//===- transform/LazyCodeMotion.cpp - EM baseline implementation -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/LazyCodeMotion.h"
#include "analysis/LcmAnalyses.h"
#include "transform/Normalize.h"

using namespace am;

FlowGraph am::runLazyCodeMotion(const FlowGraph &G, LcmStats *Stats) {
  LcmStats Local;
  LcmStats &S = Stats ? *Stats : Local;

  FlowGraph Work = G;
  removeSkips(Work);
  Work.splitCriticalEdges();

  ExprPatternTable Exprs;
  Exprs.build(Work);
  if (Exprs.size() == 0)
    return simplified(Work);

  LcmAnalysis Lcm = LcmAnalysis::run(Work, Exprs);

  // Record edge insertions.  An edge (m, n) with a single-successor m gets
  // the initialization appended at m's end; otherwise n has a unique
  // predecessor (split edges) and gets it at its entry.
  std::vector<std::vector<size_t>> AtEnd(Work.numBlocks());
  std::vector<std::vector<size_t>> AtEntry(Work.numBlocks());
  for (BlockId B = 0; B < Work.numBlocks(); ++B) {
    const auto &Succs = Work.block(B).Succs;
    for (size_t SuccIdx = 0; SuccIdx < Succs.size(); ++SuccIdx) {
      BitVector Ins = Lcm.insertOnEdge(B, SuccIdx);
      if (Ins.none())
        continue;
      for (size_t E : Ins.setBits()) {
        if (Succs.size() == 1) {
          AtEnd[B].push_back(E);
        } else {
          assert(Work.block(Succs[SuccIdx]).Preds.size() == 1 &&
                 "critical edge left unsplit");
          AtEntry[Succs[SuccIdx]].push_back(E);
        }
        ++S.InsertedOnEdges;
      }
    }
  }

  // Capture DELETE before mutating.
  std::vector<BitVector> DeleteIn(Work.numBlocks());
  for (BlockId B = 0; B < Work.numBlocks(); ++B)
    DeleteIn[B] = Lcm.deleteIn(B);

  auto TempFor = [&](size_t E) {
    ExprId Id = Work.Exprs.intern(Exprs.term(E));
    return Work.Exprs.temporary(Id, Work.Vars);
  };

  // Rewrite blocks.
  for (BlockId B = 0; B < Work.numBlocks(); ++B) {
    BasicBlock &BB = Work.block(B);
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB.Instrs.size() + AtEntry[B].size() + AtEnd[B].size());
    auto EmitInit = [&](size_t E) {
      NewInstrs.push_back(Instr::assign(TempFor(E), Exprs.term(E)));
    };

    for (size_t E : AtEntry[B])
      EmitInit(E);

    // `Avail` tracks the expressions whose temporary currently holds the
    // right value: DELETE guarantees availability at entry; every kept
    // computation re-defines its temporary below.
    BitVector Avail = DeleteIn[B];
    for (const Instr &I : BB.Instrs) {
      Instr NewI = I;
      auto RewriteTerm = [&](Term &T) {
        if (!T.isNonTrivial())
          return;
        size_t E = Exprs.indexOf(T);
        if (E == ExprPatternTable::npos)
          return;
        if (!Avail.test(E)) {
          EmitInit(E);
          Avail.set(E);
        }
        T = Term::var(TempFor(E));
        ++S.RewrittenComputations;
      };
      if (NewI.isAssign()) {
        RewriteTerm(NewI.Rhs);
      } else if (NewI.isBranch()) {
        RewriteTerm(NewI.CondL);
        RewriteTerm(NewI.CondR);
      }
      NewInstrs.push_back(std::move(NewI));
      if (const BitVector *Killed = Exprs.useMask(I.definedVar()))
        Avail.andNot(*Killed);
    }

    for (size_t E : AtEnd[B])
      EmitInit(E);
    if (NewInstrs != BB.Instrs) {
      BB.Instrs = std::move(NewInstrs);
      Work.touchBlock(B);
    }
  }

  // `h_e := h_e` degenerates when e already was a temporary initialization;
  // normalize those away.
  removeSkips(Work);
  return simplified(Work);
}
