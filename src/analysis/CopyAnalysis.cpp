//===- analysis/CopyAnalysis.cpp - Reaching copies ---------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/CopyAnalysis.h"

using namespace am;

void CopyUniverse::build(const FlowGraph &G) {
  Copies.clear();
  Occ.clear();
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (const Instr &I : G.block(B).Instrs) {
      size_t Idx = occurrence(I);
      if (Idx == npos && I.isAssign() && !I.Rhs.isNonTrivial() &&
          I.Rhs.A.isVar() && I.Rhs.A.Var != I.Lhs) {
        Idx = Copies.size();
        Copies.push_back({I.Lhs, I.Rhs.A.Var});
      }
      Occ.push(Idx == npos ? NoCopy : static_cast<uint32_t>(Idx));
    }
    Occ.endBlock();
  }
  Kill.reset(G.Vars.size(), Copies.size());
  for (size_t Idx = 0; Idx < Copies.size(); ++Idx) {
    Kill.set(Copies[Idx].Dst, Idx);
    Kill.set(Copies[Idx].Src, Idx);
  }
}

size_t CopyUniverse::occurrence(const Instr &I) const {
  if (!I.isAssign() || I.Rhs.isNonTrivial() || !I.Rhs.A.isVar())
    return npos;
  for (size_t Idx = 0; Idx < Copies.size(); ++Idx)
    if (Copies[Idx].Dst == I.Lhs && Copies[Idx].Src == I.Rhs.A.Var)
      return Idx;
  return npos;
}

namespace {

class ReachingCopiesProblem : public DataflowProblem {
public:
  explicit ReachingCopiesProblem(const CopyUniverse &U) : U(U) {}

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return U.size(); }

  void effect(BlockId B, size_t Idx, const Instr &I,
              LocalEffect &E) const override {
    E.killMask(U.killMask(I.definedVar()));
    size_t Copy = U.occurrenceAt(B, Idx);
    if (Copy != CopyUniverse::npos)
      E.gen(Copy);
  }

private:
  const CopyUniverse &U;
};

} // namespace

CopyAnalysis CopyAnalysis::run(const FlowGraph &G) {
  CopyAnalysis A;
  A.U = std::make_unique<CopyUniverse>();
  A.U->build(G);
  A.Problem = std::make_unique<ReachingCopiesProblem>(*A.U);
  A.Result = solve(G, *A.Problem);
  return A;
}
