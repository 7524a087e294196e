//===- analysis/Liveness.cpp - Variable liveness implementation -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

using namespace am;

namespace {

class LivenessProblem : public DataflowProblem {
public:
  explicit LivenessProblem(size_t NumVars) : NumVars(NumVars) {}

  Direction direction() const override { return Direction::Backward; }
  Meet meet() const override { return Meet::Any; }
  size_t numBits() const override { return NumVars; }

  void effect(BlockId, size_t, const Instr &I, LocalEffect &E) const override {
    VarId Def = I.definedVar();
    if (isValid(Def))
      E.kill(index(Def));
    I.forEachUsedVar([&](VarId V) { E.gen(index(V)); });
  }

private:
  size_t NumVars;
};

} // namespace

LivenessAnalysis LivenessAnalysis::run(const FlowGraph &G) {
  // The result is copied out when the throwaway solver dies at return.
  DataflowSolver Solver;
  return run(G, Solver);
}

LivenessAnalysis LivenessAnalysis::run(const FlowGraph &G,
                                       DataflowSolver &Solver) {
  LivenessAnalysis A;
  A.Problem = std::make_unique<LivenessProblem>(G.Vars.size());
  A.Result = Solver.solve(G, *A.Problem);
  return A;
}
