//===- analysis/LcmAnalyses.cpp - LCM analyses implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/LcmAnalyses.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace am;

namespace {

/// Anticipability (down-safety): N-ANT = COMP + TRANSP · X-ANT.
class AnticipabilityProblem : public DataflowProblem {
public:
  AnticipabilityProblem(const ExprPatternTable &E) : E(E) {}

  Direction direction() const override { return Direction::Backward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return E.size(); }

  void effect(BlockId B, size_t Idx, const Instr &I,
              LocalEffect &Eff) const override {
    Eff.killMask(E.useMask(I.definedVar()));
    E.forEachComputedAt(B, Idx, [&](size_t Expr) { Eff.gen(Expr); });
  }

private:
  const ExprPatternTable &E;
};

/// Availability (up-safety): X-AV = (N-AV + COMP) · TRANSP.  In gen/kill
/// form: gen = COMP & TRANSP (self-killing computations like `x := x+1` do
/// not make x+1 available), kill = ¬TRANSP.
class AvailabilityProblem : public DataflowProblem {
public:
  AvailabilityProblem(const ExprPatternTable &E) : E(E) {}

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return E.size(); }

  void effect(BlockId B, size_t Idx, const Instr &I,
              LocalEffect &Eff) const override {
    const BitVector *Killed = E.useMask(I.definedVar());
    Eff.killMask(Killed);
    E.forEachComputedAt(B, Idx, [&](size_t Expr) {
      if (!Killed || !Killed->test(Expr))
        Eff.gen(Expr);
    });
  }

private:
  const ExprPatternTable &E;
};

} // namespace

LcmAnalysis LcmAnalysis::run(const FlowGraph &G,
                             const ExprPatternTable &Exprs) {
  assert(!G.hasCriticalEdges() &&
         "LCM requires critical edges to be split first");
  LcmAnalysis A;
  A.G = &G;
  A.Bits = Exprs.size();
  A.Words = (A.Bits + 63) / 64;
  size_t N = G.numBlocks(), W = A.Words;
  {
    AM_SPAN(Span, "lcm.solve");
    A.AntProblem = std::make_unique<AnticipabilityProblem>(Exprs);
    A.AvProblem = std::make_unique<AvailabilityProblem>(Exprs);
    A.AntSolver = std::make_unique<DataflowSolver>();
    A.AvSolver = std::make_unique<DataflowSolver>();
    A.Ant = A.AntSolver->solve(G, *A.AntProblem);
    A.Av = A.AvSolver->solve(G, *A.AvProblem);

    // EARLIEST(m,n) = ANTIN(n) · ¬AVOUT(m) · (¬TRANSP(m) + ¬ANTOUT(m)),
    // once per edge.
    A.EdgeBase.assign(N + 1, 0);
    for (BlockId B = 0; B < N; ++B) {
      const auto &Succs = G.block(B).Succs;
      A.EdgeBase[B + 1] = A.EdgeBase[B] + Succs.size();
      A.Earliest.resize(A.EdgeBase[B + 1] * W);
      WordRow AntOut = A.Ant.exitRow(B), AvOut = A.Av.exitRow(B);
      WordRow NotTransp = A.local(B, false);
      for (size_t SuccIdx = 0; SuccIdx < Succs.size(); ++SuccIdx) {
        WordRow AntIn = A.Ant.entryRow(Succs[SuccIdx]);
        uint64_t *E = A.Earliest.data() + (A.EdgeBase[B] + SuccIdx) * W;
        for (size_t Wd = 0; Wd < W; ++Wd)
          E[Wd] = AntIn.word(Wd) & ~AvOut.word(Wd) &
                  (NotTransp.word(Wd) | ~AntOut.word(Wd));
      }
    }
  }

  // LATERIN (greatest fixpoint over edges, with a virtual entry edge into
  // s whose EARLIEST is simply ANTIN(s): the program entry has no further
  // "up").  With that edge, LATERIN(s) = ANTIN(s), so up-exposed
  // originals in s are never deleted and placement is lazily delayed to
  // first uses — no insertions at the entry of s are needed.  LATERIN(n)
  // is the meet of LATER(m,n) over the in-edges, and LATER is folded into
  // it rather than stored.  The greatest fixpoint is unique, so a
  // worklist from all-true reaches the solution round-robin sweeps do.
  AM_SPAN(Span, "lcm.later");
  BitVector Top(A.Bits, true);
  A.LaterIn.resize(N * W);
  for (BlockId B = 0; B < N; ++B)
    std::copy(Top.data(), Top.data() + W, A.LaterIn.data() + B * W);
  std::vector<BlockId> Order = G.reversePostorder();
  std::vector<size_t> Pos(N);
  WorklistRing Work;
  Work.reset(N);
  for (size_t P = 0; P < N; ++P) {
    Pos[Order[P]] = P;
    Work.push(P);
  }
  WordRow StartIn = A.Ant.entryRow(G.start());
  std::vector<uint64_t> New(W);
  for (size_t P = Work.pop(); P != WorklistRing::npos; P = Work.pop()) {
    BlockId B = Order[P];
    const auto &Preds = G.block(B).Preds;
    // A block other than s without in-edges is an unreachable join: be
    // conservative.
    for (size_t Wd = 0; Wd < W; ++Wd)
      New[Wd] = B == G.start() ? StartIn.word(Wd) : Preds.empty() ? 0 : ~0ull;
    for (BlockId M : Preds) {
      WordRow Antloc = A.local(M, true);
      const uint64_t *In = A.LaterIn.data() + M * W;
      const auto &Succs = G.block(M).Succs;
      for (size_t SuccIdx = 0; SuccIdx < Succs.size(); ++SuccIdx) {
        if (Succs[SuccIdx] != B)
          continue;
        WordRow Earliest = A.earliestRow(M, SuccIdx);
        for (size_t Wd = 0; Wd < W; ++Wd)
          New[Wd] &= Earliest.word(Wd) | (In[Wd] & ~Antloc.word(Wd));
      }
    }
    uint64_t *In = A.LaterIn.data() + B * W;
    if (std::equal(New.begin(), New.end(), In))
      continue;
    std::copy(New.begin(), New.end(), In);
    for (BlockId S : G.block(B).Succs)
      Work.push(Pos[S]);
  }
  return A;
}

BitVector LcmAnalysis::transp(BlockId B) const {
  BitVector T = local(B, false).toBitVector();
  T.flipAll();
  return T;
}

BitVector LcmAnalysis::insertOnEdge(BlockId B, size_t SuccIdx) const {
  BitVector Ins(Bits);
  forEachInsert(B, SuccIdx, [&](size_t E) { Ins.set(E); });
  return Ins;
}

void LcmAnalysis::deleteIn(BlockId B, BitVector &Out) const {
  // DELETE(b) = ANTLOC(b) · ¬LATERIN(b).
  WordRow Antloc = local(B, true);
  Out.clearAndResize(Bits);
  for (size_t W = 0; W < Words; ++W)
    Out.data()[W] = Antloc.word(W) & ~LaterIn[B * Words + W];
}
