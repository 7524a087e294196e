//===- transform/LazyCodeMotion.cpp - EM baseline implementation -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/LazyCodeMotion.h"
#include "analysis/LcmAnalyses.h"
#include "support/Telemetry.h"
#include "transform/Normalize.h"

#include <functional>
#include <iterator>

using namespace am;

namespace {

/// The insert-and-rewrite step of LCM and BCM: inserts `h_e := e` for the
/// patterns listed per block — \p AtEntry[B] before B's first
/// instruction, \p AtEnd[B] after its last — and rewrites every
/// computation of a pattern e to read h_e, initializing h_e just before
/// it where h_e does not hold e's value.  \p EntryAvail(B, Out) sets Out
/// to the patterns whose temporaries hold their values at B's entry.
/// Returns the number of rewritten computations.
unsigned insertAndRewrite(
    FlowGraph &G, const ExprPatternTable &Exprs,
    const std::vector<std::vector<uint32_t>> &AtEntry,
    const std::vector<std::vector<uint32_t>> &AtEnd,
    const std::function<void(BlockId, BitVector &)> &EntryAvail) {
  // Each pattern's temporary is interned on first use, in the order the
  // rewrite asks for them, which fixes the temporaries' numbering.
  std::vector<VarId> Temps(Exprs.size(), VarId::Invalid);
  auto TempFor = [&](size_t E) {
    if (!isValid(Temps[E]))
      Temps[E] = G.Exprs.temporary(G.Exprs.intern(Exprs.term(E)), G.Vars);
    return Temps[E];
  };
  auto Init = [&](size_t E) {
    return Instr::assign(TempFor(E), Exprs.term(E));
  };

  unsigned Rewritten = 0;
  BitVector Avail;
  std::vector<Instr> Rebuilt;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    std::vector<Instr> &Instrs = G.block(B).Instrs;
    // Terms are rewritten in place; the list is rebuilt (into Rebuilt)
    // only once an initialization goes before some instruction.
    bool Rebuilding = !AtEntry[B].empty();
    auto StartRebuild = [&](size_t Prefix) {
      Rebuilt.clear();
      Rebuilt.reserve(Instrs.size() + AtEntry[B].size() + 8);
      for (uint32_t E : AtEntry[B])
        Rebuilt.push_back(Init(E));
      std::move(Instrs.begin(), Instrs.begin() + Prefix,
                std::back_inserter(Rebuilt));
      Rebuilding = true;
    };
    if (Rebuilding)
      StartRebuild(0);

    // `Avail` tracks the expressions whose temporary currently holds the
    // right value; every kept computation re-defines its temporary below.
    EntryAvail(B, Avail);
    unsigned Before = Rewritten;
    for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
      Instr &I = Instrs[Idx];
      auto RewriteTerm = [&](Term &T) {
        size_t E = Exprs.indexOf(T);
        if (E == ExprPatternTable::npos)
          return;
        if (!Avail.test(E)) {
          if (!Rebuilding)
            StartRebuild(Idx);
          Rebuilt.push_back(Init(E));
          Avail.set(E);
        }
        T = Term::var(TempFor(E));
        ++Rewritten;
      };
      VarId Def = I.definedVar();
      if (I.isAssign()) {
        RewriteTerm(I.Rhs);
      } else if (I.isBranch()) {
        RewriteTerm(I.CondL);
        RewriteTerm(I.CondR);
      }
      if (Rebuilding)
        Rebuilt.push_back(std::move(I));
      if (const BitVector *Killed = Exprs.useMask(Def))
        Avail.andNot(*Killed);
    }
    if (Rebuilding)
      Instrs.swap(Rebuilt);
    for (uint32_t E : AtEnd[B])
      Instrs.push_back(Init(E));
    if (Rebuilding || !AtEnd[B].empty() || Rewritten != Before)
      G.touchBlock(B);
  }
  return Rewritten;
}

} // namespace

void am::lazyCodeMotion(FlowGraph &G, LcmStats *Stats) {
  LcmStats Local;
  LcmStats &S = Stats ? *Stats : Local;

  ExprPatternTable Exprs;
  {
    AM_SPAN(Span, "lcm.solve");
    removeSkips(G);
    G.splitCriticalEdges();
    Exprs.build(G);
  }
  if (Exprs.size() != 0) {
    LcmAnalysis Lcm = LcmAnalysis::run(G, Exprs);

    AM_SPAN(Span, "lcm.rewrite");
    // Record edge insertions.  An edge (m, n) with a single-successor m
    // gets the initialization appended at m's end; otherwise n has a
    // unique predecessor (split edges) and gets it at its entry.
    std::vector<std::vector<uint32_t>> AtEnd(G.numBlocks());
    std::vector<std::vector<uint32_t>> AtEntry(G.numBlocks());
    for (BlockId B = 0; B < G.numBlocks(); ++B) {
      const auto &Succs = G.block(B).Succs;
      for (size_t SuccIdx = 0; SuccIdx < Succs.size(); ++SuccIdx)
        Lcm.forEachInsert(B, SuccIdx, [&](size_t E) {
          assert((Succs.size() == 1 ||
                  G.block(Succs[SuccIdx]).Preds.size() == 1) &&
                 "critical edge left unsplit");
          (Succs.size() == 1 ? AtEnd[B] : AtEntry[Succs[SuccIdx]])
              .push_back(static_cast<uint32_t>(E));
          ++S.InsertedOnEdges;
        });
    }
    // DELETE guarantees availability at entry.
    S.RewrittenComputations += insertAndRewrite(
        G, Exprs, AtEntry, AtEnd,
        [&](BlockId B, BitVector &Out) { Lcm.deleteIn(B, Out); });
  }

  // `h_e := h_e` degenerates when e already was a temporary
  // initialization; simplify drops those with the skips.
  AM_SPAN(Span, "lcm.simplify");
  simplify(G);
}

FlowGraph am::runLazyCodeMotion(const FlowGraph &G, LcmStats *Stats) {
  FlowGraph Work = G;
  lazyCodeMotion(Work, Stats);
  return Work;
}

FlowGraph am::runBusyCodeMotion(const FlowGraph &G) {
  FlowGraph Work = G;
  removeSkips(Work);
  Work.splitCriticalEdges();

  ExprPatternTable Exprs;
  Exprs.build(Work);
  if (Exprs.size() != 0) {
    LcmAnalysis Lcm = LcmAnalysis::run(Work, Exprs);

    // Insert on the earliest edges, plus ANTIN(s) at the entry of s.
    std::vector<std::vector<uint32_t>> AtEnd(Work.numBlocks());
    std::vector<std::vector<uint32_t>> AtEntry(Work.numBlocks());
    Lcm.antInRow(Work.start()).forEachSetBit(
        [&](size_t E) { AtEntry[Work.start()].push_back(uint32_t(E)); });
    for (BlockId B = 0; B < Work.numBlocks(); ++B) {
      const auto &Succs = Work.block(B).Succs;
      for (size_t SuccIdx = 0; SuccIdx < Succs.size(); ++SuccIdx)
        Lcm.earliestRow(B, SuccIdx).forEachSetBit([&](size_t E) {
          (Succs.size() == 1 ? AtEnd[B] : AtEntry[Succs[SuccIdx]])
              .push_back(uint32_t(E));
        });
    }

    // Under this placement the temporaries hold their values at the entry
    // of b for every pattern in ANTIN(b) ∪ AVIN(b): on each in-edge (m,b)
    // of such a pattern the edge is earliest, or it is available or
    // transparent-and-anticipated at m's exit.  So every up-exposed
    // computation (ANTLOC(b) ⊆ ANTIN(b)) reads its temporary, and the
    // rewrite's own tracking decides the computations after a kill.
    insertAndRewrite(Work, Exprs, AtEntry, AtEnd,
                     [&](BlockId B, BitVector &Out) { Out = Lcm.antloc(B); });
  }
  simplify(Work);
  return Work;
}
