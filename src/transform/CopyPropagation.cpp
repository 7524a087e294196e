//===- transform/CopyPropagation.cpp - CP implementation --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/CopyPropagation.h"
#include "analysis/CopyAnalysis.h"
#include "support/Telemetry.h"

using namespace am;

namespace {

/// One propagation pass: re-runs \p Analysis on its solver's engine with
/// problem generation \p Gen (each pass numbers its copies afresh).
/// Returns the number of rewritten uses.
unsigned propagateOnce(FlowGraph &G, CopyAnalysis &Analysis,
                       DataflowSolver &Solver, uint64_t Gen) {
  {
    AM_SPAN(Span, "cp.solve");
    Analysis.rerun(G, Solver, Gen);
  }
  const CopyUniverse &U = Analysis.universe();
  if (U.size() == 0)
    return 0;

  AM_SPAN(Span, "cp.rewrite");
  unsigned Rewritten = 0;
  BlockWalker Walk(Analysis.result());
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    auto &Instrs = G.block(B).Instrs;
    unsigned Before = Rewritten;
    // Rewriting an operand changes neither the instruction's definition
    // nor its recorded copy occurrence — all its reaching-copies effect
    // reads — so the replay can rewrite as it walks.
    Walk.walk(B, [&](size_t Idx, const BitVector &Reaching,
                     const LocalEffect &) {
      if (Reaching.none())
        return;
      // The first reaching copy `x := y` in index order rewrites x.
      auto RewriteOperand = [&](Operand &O) {
        if (!O.isVar())
          return;
        U.forEachCopyTo(O.Var, [&](size_t C) {
          if (!Reaching.test(C))
            return false;
          O.Var = U.src(C);
          ++Rewritten;
          return true;
        });
      };
      Instr &I = Instrs[Idx];
      if (I.isAssign()) {
        RewriteOperand(I.Rhs.A);
        if (I.Rhs.isNonTrivial())
          RewriteOperand(I.Rhs.B);
      } else if (I.isBranch()) {
        RewriteOperand(I.CondL.A);
        if (I.CondL.isNonTrivial())
          RewriteOperand(I.CondL.B);
        RewriteOperand(I.CondR.A);
        if (I.CondR.isNonTrivial())
          RewriteOperand(I.CondR.B);
      }
    });
    if (Rewritten != Before)
      G.touchBlock(B);
  }
  return Rewritten;
}

} // namespace

unsigned am::runCopyPropagation(FlowGraph &G) {
  // One engine and one universe for every pass: their storage is
  // reused, not reallocated.
  DataflowSolver Solver;
  CopyAnalysis Analysis;
  unsigned Total = 0;
  // Copy chains (x := y; z := x; use z) resolve in at most |V| passes;
  // cap defensively.
  for (unsigned Pass = 0; Pass < G.Vars.size() + 2; ++Pass) {
    unsigned Rewritten = propagateOnce(G, Analysis, Solver, Pass + 1);
    Total += Rewritten;
    if (Rewritten == 0)
      break;
  }
  return Total;
}
