//===- analysis/PaperAnalyses.cpp - Tables 1-3 implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "analysis/PaperAnalyses.h"
#include "support/Telemetry.h"

using namespace am;

namespace {

//===----------------------------------------------------------------------===//
// Table 2: X-REDUNDANT = EXECUTED + ASS-TRANSP · N-REDUNDANT
//===----------------------------------------------------------------------===//

class RedundancyProblem : public DataflowProblem {
public:
  RedundancyProblem(const AssignPatternTable &Pats) : Pats(Pats) {}

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return Pats.size(); }

  void effect(BlockId B, size_t Idx, const Instr &I,
              LocalEffect &E) const override {
    E.killMask(Pats.defMask(I.definedVar()));
    // Only patterns `v := t` with v not an operand of t can be redundant
    // (Table 2 precondition).
    size_t Pat = Pats.occurrenceAt(B, Idx);
    if (Pat != AssignPatternTable::npos && Pats.redundancyEligible().test(Pat))
      E.gen(Pat);
  }

private:
  const AssignPatternTable &Pats;
};

//===----------------------------------------------------------------------===//
// Table 3 problems
//===----------------------------------------------------------------------===//

/// X-DELAYABLE = IS-INST + N-DELAYABLE · ¬USED · ¬BLOCKED (forward, all).
class DelayabilityProblem : public DataflowProblem {
public:
  DelayabilityProblem(const FlushUniverse &U) : U(U) {}

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return U.size(); }

  void effect(BlockId, size_t, const Instr &I, LocalEffect &E) const override {
    U.forEachUsed(I, [&](size_t T) { E.kill(T); });
    E.killMask(U.blockedMask(I.definedVar()));
    size_t T = U.instanceOf(I);
    if (T != FlushUniverse::npos)
      E.gen(T);
  }

private:
  const FlushUniverse &U;
};

/// N-USABLE = USED + ¬IS-INST · X-USABLE (backward, any).  Solved as a
/// least fixpoint: "h is used on some program continuation before being
/// re-initialized" — the liveness-style semantics footnote 7 describes.
class UsabilityProblem : public DataflowProblem {
public:
  UsabilityProblem(const FlushUniverse &U) : U(U) {}

  Direction direction() const override { return Direction::Backward; }
  Meet meet() const override { return Meet::Any; }
  size_t numBits() const override { return U.size(); }

  void effect(BlockId, size_t, const Instr &I, LocalEffect &E) const override {
    size_t T = U.instanceOf(I);
    if (T != FlushUniverse::npos)
      E.kill(T);
    U.forEachUsed(I, [&](size_t Used) { E.gen(Used); });
  }

private:
  const FlushUniverse &U;
};

} // namespace

//===----------------------------------------------------------------------===//
// BlockingProblem
//===----------------------------------------------------------------------===//

void BlockingProblem::effect(BlockId B, size_t Idx, const Instr &I,
                             LocalEffect &E) const {
  // A modification of x or of an operand of t blocks x := t, and so does
  // a use of x.
  E.killMask(Pats.defMask(I.definedVar()));
  I.forEachUsedVar([&](VarId U) { E.killMask(Pats.lhsMask(U)); });
  size_t Pat = Pats.occurrenceAt(B, Idx);
  if (Pat != AssignPatternTable::npos)
    E.gen(Pat);
}

//===----------------------------------------------------------------------===//
// RedundancyAnalysis
//===----------------------------------------------------------------------===//

RedundancyAnalysis RedundancyAnalysis::run(const FlowGraph &G,
                                           const AssignPatternTable &Pats) {
  auto Solver = std::make_unique<DataflowSolver>();
  RedundancyAnalysis A = run(G, Pats, *Solver, /*PatsGen=*/0);
  A.OwnedSolver = std::move(Solver);
  return A;
}

RedundancyAnalysis RedundancyAnalysis::run(const FlowGraph &G,
                                           const AssignPatternTable &Pats,
                                           DataflowSolver &Solver,
                                           uint64_t PatsGen) {
  AM_SPAN(Span, "analysis.redundancy");
  RedundancyAnalysis A;
  A.G = &G;
  A.Pats = &Pats;
  A.Problem = std::make_unique<RedundancyProblem>(Pats);
  A.Result = Solver.solve(G, *A.Problem, PatsGen);
  return A;
}

//===----------------------------------------------------------------------===//
// HoistabilityAnalysis
//===----------------------------------------------------------------------===//

HoistabilityAnalysis HoistabilityAnalysis::run(const FlowGraph &G,
                                               const AssignPatternTable &Pats) {
  auto Solver = std::make_unique<DataflowSolver>();
  auto Locals = std::make_unique<HoistLocalPredicates>();
  HoistabilityAnalysis A = run(G, Pats, *Solver, *Locals, /*PatsGen=*/0);
  A.OwnedSolver = std::move(Solver);
  A.OwnedLocals = std::move(Locals);
  return A;
}

HoistabilityAnalysis HoistabilityAnalysis::run(const FlowGraph &G,
                                               const AssignPatternTable &Pats,
                                               DataflowSolver &Solver,
                                               HoistLocalPredicates &Locals,
                                               uint64_t PatsGen) {
  AM_SPAN(Span, "analysis.hoistability");
  HoistabilityAnalysis A;
  A.G = &G;
  A.Problem = std::make_unique<BlockingProblem>(Pats, Direction::Backward);
  A.Result = Solver.solve(G, *A.Problem, PatsGen);
  Locals.refresh(Solver);
  A.Locals = &Locals;
  return A;
}

//===----------------------------------------------------------------------===//
// FlushUniverse
//===----------------------------------------------------------------------===//

void FlushUniverse::build(const FlowGraph &G) {
  Temps.clear();
  VarToIdx.assign(G.Vars.size(), npos);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (const Instr &I : G.block(B).Instrs) {
      if (!I.isAssign() || !I.Rhs.isNonTrivial())
        continue;
      if (!G.Vars.isTemp(I.Lhs))
        continue;
      ExprId E = G.Exprs.lookup(I.Rhs);
      if (!isValid(E) || G.Vars.tempFor(I.Lhs) != E)
        continue;
      if (VarToIdx[index(I.Lhs)] != npos)
        continue;
      VarToIdx[index(I.Lhs)] = Temps.size();
      Temps.push_back({I.Lhs, I.Rhs});
    }
  }
  Blocked.reset(G.Vars.size(), Temps.size());
  for (size_t Idx = 0; Idx < Temps.size(); ++Idx) {
    Blocked.set(Temps[Idx].Var, Idx);
    Temps[Idx].Expr.forEachVar([&](VarId V) { Blocked.set(V, Idx); });
  }
}

size_t FlushUniverse::indexOfTemp(VarId V) const {
  size_t Idx = index(V);
  return Idx < VarToIdx.size() ? VarToIdx[Idx] : npos;
}

size_t FlushUniverse::instanceOf(const Instr &I) const {
  if (!I.isAssign())
    return npos;
  size_t Idx = indexOfTemp(I.Lhs);
  if (Idx != npos && I.Rhs == Temps[Idx].Expr)
    return Idx;
  return npos;
}

//===----------------------------------------------------------------------===//
// FlushAnalysis
//===----------------------------------------------------------------------===//

FlushAnalysis FlushAnalysis::run(const FlowGraph &G) {
  auto Delay = std::make_unique<DataflowSolver>();
  auto Usable = std::make_unique<DataflowSolver>();
  FlushAnalysis A = run(G, *Delay, *Usable);
  A.OwnedDelay = std::move(Delay);
  A.OwnedUsable = std::move(Usable);
  return A;
}

FlushAnalysis FlushAnalysis::run(const FlowGraph &G,
                                 DataflowSolver &DelaySolver,
                                 DataflowSolver &UsableSolver) {
  FlushAnalysis A;
  A.G = &G;
  A.UniversePtr = std::make_unique<FlushUniverse>();
  A.UniversePtr->build(G);
  A.DelayProblem = std::make_unique<DelayabilityProblem>(*A.UniversePtr);
  A.UsableProblem = std::make_unique<UsabilityProblem>(*A.UniversePtr);
  DelaySolver.handOver();
  UsableSolver.handOver();
  {
    AM_SPAN(Span, "analysis.delayability");
    A.Delay = DelaySolver.solve(G, *A.DelayProblem);
  }
  {
    AM_SPAN(Span, "analysis.usability");
    A.Usable = UsableSolver.solve(G, *A.UsableProblem);
  }
  return A;
}

FlushAnalysis::BlockPlan FlushAnalysis::plan(BlockId B) const {
  size_t N = G->block(B).Instrs.size();
  BlockPlan Plan;
  Plan.InitBefore.reset(N, universe().size());
  Plan.Reconstruct.reset(N, universe().size());
  Plan.InitAtExit = universe().makeVector();
  LatestPlacement Walk(Delay, Usable);
  place(Walk, B, [&](const LatestPoint &P) {
    if (P.Idx == N)
      Plan.InitAtExit.set(P.Bit);
    else
      (P.K == LatestKind::Place ? Plan.InitBefore : Plan.Reconstruct)
          .add(P.Idx, P.Bit);
  });
  Plan.InitBefore.finish();
  Plan.Reconstruct.finish();
  return Plan;
}
