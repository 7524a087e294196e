//===- analysis/LcmAnalyses.cpp - LCM analyses implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/LcmAnalyses.h"

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
  A.Exprs = &Exprs;
  A.AntProblem = std::make_unique<AnticipabilityProblem>(Exprs);
  A.AvProblem = std::make_unique<AvailabilityProblem>(Exprs);
  A.Ant = solve(G, *A.AntProblem);
  A.Av = solve(G, *A.AvProblem);

  // Local predicates: ANTLOC and ¬TRANSP are the gen and kill sides of
  // the block's composed anticipability transfer.
  A.Antloc.resize(G.numBlocks());
  A.Transp.resize(G.numBlocks());
  LocalEffect E;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    composeBlock(*A.AntProblem, G, B, E, A.Antloc[B], A.Transp[B]);
    A.Transp[B].flipAll();
  }

  // LATER / LATERIN (greatest fixpoint over edges, with a virtual entry
  // edge into s whose EARLIEST is simply ANTIN(s): the program entry has
  // no further "up").  With that edge, LATERIN(s) = ANTIN(s), so
  // up-exposed originals in s are never deleted and placement is lazily
  // delayed to first uses — no insertions at the entry of s are needed.
  size_t Bits = Exprs.size();
  A.LaterVirtual = A.antIn(G.start());
  A.LaterIn.assign(G.numBlocks(), BitVector(Bits, true));
  A.Later.resize(G.numBlocks());
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    A.Later[B].assign(G.block(B).Succs.size(), BitVector(Bits, true));

  // In-edge lists: block -> (pred, pred succ index).
  std::vector<std::vector<std::pair<BlockId, size_t>>> InEdges(G.numBlocks());
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (size_t SuccIdx = 0; SuccIdx < G.block(B).Succs.size(); ++SuccIdx)
      InEdges[G.block(B).Succs[SuccIdx]].emplace_back(B, SuccIdx);

  std::vector<BlockId> Order = G.reversePostorder();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : Order) {
      // LATERIN(B) = meet over incoming LATER edges.
      BitVector NewIn(Bits, true);
      if (B == G.start()) {
        NewIn = A.LaterVirtual;
      } else if (InEdges[B].empty()) {
        NewIn = BitVector(Bits); // unreachable join: be conservative
      } else {
        NewIn = A.Later[InEdges[B][0].first][InEdges[B][0].second];
        for (size_t EdgeIdx = 1; EdgeIdx < InEdges[B].size(); ++EdgeIdx)
          NewIn &= A.Later[InEdges[B][EdgeIdx].first][InEdges[B][EdgeIdx].second];
      }
      if (NewIn != A.LaterIn[B]) {
        A.LaterIn[B] = NewIn;
        Changed = true;
      }
      // LATER(B, succ) = EARLIEST(B, succ) | (LATERIN(B) & ¬ANTLOC(B)).
      BitVector Delayable = A.LaterIn[B];
      Delayable.andNot(A.Antloc[B]);
      for (size_t SuccIdx = 0; SuccIdx < G.block(B).Succs.size(); ++SuccIdx) {
        BitVector NewLater = A.earliest(B, SuccIdx);
        NewLater |= Delayable;
        if (NewLater != A.Later[B][SuccIdx]) {
          A.Later[B][SuccIdx] = NewLater;
          Changed = true;
        }
      }
    }
  }
  return A;
}

BitVector LcmAnalysis::earliest(BlockId B, size_t SuccIdx) const {
  BlockId N = G->block(B).Succs[SuccIdx];
  // EARLIEST(m,n) = ANTIN(n) · ¬AVOUT(m) · (¬TRANSP(m) + ¬ANTOUT(m)).
  BitVector E = antIn(N);
  E.andNot(avOut(B));
  BitVector ThirdFactor = ~transp(B);
  ThirdFactor |= ~antOut(B);
  E &= ThirdFactor;
  return E;
}

BitVector LcmAnalysis::insertOnEdge(BlockId B, size_t SuccIdx) const {
  // INSERT(m,n) = LATER(m,n) · ¬LATERIN(n).
  BitVector Ins = Later[B][SuccIdx];
  Ins.andNot(LaterIn[G->block(B).Succs[SuccIdx]]);
  return Ins;
}

BitVector LcmAnalysis::deleteIn(BlockId B) const {
  // DELETE(b) = ANTLOC(b) · ¬LATERIN(b).
  BitVector Del = Antloc[B];
  Del.andNot(LaterIn[B]);
  return Del;
}
