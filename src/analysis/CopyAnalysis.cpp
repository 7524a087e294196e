//===- analysis/CopyAnalysis.cpp - Reaching copies ---------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/CopyAnalysis.h"

using namespace am;

void CopyUniverse::build(const FlowGraph &G) {
  Copies.clear();
  Index.clear();
  Occ.clear();
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (const Instr &I : G.block(B).Instrs) {
      uint32_t Idx = NoCopy;
      if (I.isAssign() && !I.Rhs.isNonTrivial() && I.Rhs.A.isVar() &&
          I.Rhs.A.Var != I.Lhs) {
        auto [It, New] = Index.try_emplace(
            key(I.Lhs, I.Rhs.A.Var), static_cast<uint32_t>(Copies.size()));
        if (New)
          Copies.push_back({I.Lhs, I.Rhs.A.Var});
        Idx = It->second;
      }
      Occ.push(Idx);
    }
    Occ.endBlock();
  }
  Kill.reset(G.Vars.size(), Copies.size());
  DstOff.assign(G.Vars.size() + 1, 0);
  for (size_t Idx = 0; Idx < Copies.size(); ++Idx) {
    Kill.set(Copies[Idx].Dst, Idx);
    Kill.set(Copies[Idx].Src, Idx);
    ++DstOff[index(Copies[Idx].Dst) + 1];
  }
  for (size_t V = 0; V < G.Vars.size(); ++V)
    DstOff[V + 1] += DstOff[V];
  // Filling advances each group's offset to the next group's start;
  // shifting by one restores the starts.
  ByDst.resize(Copies.size());
  for (size_t Idx = 0; Idx < Copies.size(); ++Idx)
    ByDst[DstOff[index(Copies[Idx].Dst)]++] = static_cast<uint32_t>(Idx);
  for (size_t V = G.Vars.size(); V > 0; --V)
    DstOff[V] = DstOff[V - 1];
  DstOff[0] = 0;
}

size_t CopyUniverse::occurrence(const Instr &I) const {
  if (!I.isAssign() || I.Rhs.isNonTrivial() || !I.Rhs.A.isVar())
    return npos;
  auto It = Index.find(key(I.Lhs, I.Rhs.A.Var));
  return It == Index.end() ? npos : It->second;
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
  // The result is copied out when the throwaway solver dies at return.
  DataflowSolver Solver;
  CopyAnalysis A;
  A.rerun(G, Solver, /*Gen=*/0);
  return A;
}

void CopyAnalysis::rerun(const FlowGraph &G, DataflowSolver &Solver,
                         uint64_t Gen) {
  if (!U) {
    U = std::make_unique<CopyUniverse>();
    Problem = std::make_unique<ReachingCopiesProblem>(*U);
  }
  // Released first, so the solver does not copy the old facts out.
  Result = DataflowResult();
  U->build(G);
  Result = Solver.solve(G, *Problem, Gen);
}
