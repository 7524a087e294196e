//===- tests/incremental_test.cpp - Incremental solver equivalence -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests for the incremental fixpoint machinery: a reused
/// DataflowSolver / AmContext must produce *bit-identical* results to
/// from-scratch analysis at every round of the AM fixpoint, over the
/// paper's figures and a random-program corpus.  Also covers the cheap
/// observable contracts: a fully cached solve does zero block work, an
/// incremental re-solve after a local edit does strictly less work than
/// the initial solve, and pattern generations only advance when the
/// pattern universe actually changes.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/PaperAnalyses.h"
#include "dfa/Dataflow.h"
#include "figures/PaperFigures.h"
#include "gen/RandomProgram.h"
#include "ir/Patterns.h"
#include "transform/AssignmentHoisting.h"
#include "transform/AssignmentMotion.h"
#include "transform/RedundantAssignElim.h"

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

namespace {

/// Forward must-analysis over variables ("definitely assigned"), small
/// enough to reason about and structurally identical to the paper
/// problems (gen at defs, empty kill).
class TinyAssigned : public DataflowProblem {
public:
  explicit TinyAssigned(const FlowGraph &G) : NumVars(G.Vars.size()) {}

  Direction direction() const override { return Direction::Forward; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return NumVars; }

  void effect(BlockId, size_t, const Instr &I, LocalEffect &E) const override {
    VarId Def = I.definedVar();
    if (isValid(Def))
      E.gen(index(Def));
  }

private:
  size_t NumVars;
};

void expectSameFacts(const FlowGraph &G, const DataflowResult &A,
                     const DataflowResult &B, const std::string &Context) {
  for (BlockId Blk = 0; Blk < G.numBlocks(); ++Blk) {
    EXPECT_EQ(A.entry(Blk), B.entry(Blk)) << Context << " entry of " << Blk;
    EXPECT_EQ(A.exit(Blk), B.exit(Blk)) << Context << " exit of " << Blk;
  }
}

/// Drives the AM fixpoint round by round with a persistent AmContext,
/// checking at every round that the context-backed (incremental) analyses
/// agree bit-for-bit with from-scratch ones.
void expectIncrementalMatchesFresh(FlowGraph G, const std::string &Context) {
  G.splitCriticalEdges();
  AmContext Ctx;
  for (unsigned Round = 0; Round < 64; ++Round) {
    std::string Where = Context + ", round " + std::to_string(Round);
    Ctx.refreshPatterns(G);
    const AssignPatternTable &Pats = Ctx.patterns();
    if (Pats.size() != 0) {
      RedundancyAnalysis IncRed = RedundancyAnalysis::run(
          G, Pats, Ctx.redundancySolver(), Ctx.patternGeneration());
      RedundancyAnalysis FreshRed = RedundancyAnalysis::run(G, Pats);
      HoistabilityAnalysis IncHoist =
          HoistabilityAnalysis::run(G, Pats, Ctx.hoistSolver(),
                                    Ctx.hoistLocals(),
                                    Ctx.patternGeneration());
      HoistabilityAnalysis FreshHoist = HoistabilityAnalysis::run(G, Pats);
      for (BlockId B = 0; B < G.numBlocks(); ++B) {
        EXPECT_EQ(IncRed.entry(B), FreshRed.entry(B)) << Where << " red " << B;
        EXPECT_EQ(IncRed.exit(B), FreshRed.exit(B)) << Where << " red " << B;
        EXPECT_EQ(IncHoist.entryHoistable(B), FreshHoist.entryHoistable(B))
            << Where << " hoist " << B;
        EXPECT_EQ(IncHoist.exitHoistable(B), FreshHoist.exitHoistable(B))
            << Where << " hoist " << B;
        EXPECT_EQ(IncHoist.locBlocked(B), FreshHoist.locBlocked(B))
            << Where << " locBlocked " << B;
        EXPECT_EQ(IncHoist.locHoistable(B), FreshHoist.locHoistable(B))
            << Where << " locHoistable " << B;
      }
    }
    unsigned Eliminated = runRedundantAssignmentElimination(G, Ctx);
    bool Hoisted = runAssignmentHoisting(G, Ctx);
    if (Eliminated == 0 && !Hoisted)
      return;
  }
  FAIL() << Context << ": AM fixpoint did not stabilize within 64 rounds";
}

/// Runs the AM phase once with a persistent context and once as a pure
/// from-scratch alternation; the final programs must print identically.
void expectSameFinalProgram(const FlowGraph &Base, const std::string &Context) {
  FlowGraph WithCtx = Base;
  WithCtx.splitCriticalEdges();
  AmContext Ctx;
  AmPhaseStats StatsCtx = runAssignmentMotionPhase(WithCtx, Ctx);

  FlowGraph Scratch = Base;
  Scratch.splitCriticalEdges();
  AmPhaseStats StatsScratch;
  while (true) {
    ++StatsScratch.Iterations;
    // One-shot entry points: every call re-derives everything.
    unsigned Eliminated = runRedundantAssignmentElimination(Scratch);
    StatsScratch.Eliminated += Eliminated;
    bool Hoisted = runAssignmentHoisting(Scratch);
    if (Hoisted)
      ++StatsScratch.HoistRounds;
    if (Eliminated == 0 && !Hoisted)
      break;
    ASSERT_LT(StatsScratch.Iterations, 256u) << Context;
  }

  EXPECT_EQ(printGraph(WithCtx), printGraph(Scratch)) << Context;
  EXPECT_EQ(StatsCtx.Iterations, StatsScratch.Iterations) << Context;
  EXPECT_EQ(StatsCtx.Eliminated, StatsScratch.Eliminated) << Context;
  EXPECT_EQ(StatsCtx.HoistRounds, StatsScratch.HoistRounds) << Context;
}

} // namespace

//===----------------------------------------------------------------------===//
// Solver-level contracts
//===----------------------------------------------------------------------===//

TEST(IncrementalSolver, FullyCachedSolveDoesNoBlockWork) {
  FlowGraph G = generateStructuredProgram(7);
  TinyAssigned P(G);
  DataflowSolver Solver;
  DataflowResult First = Solver.solve(G, P, SolverKind::Worklist);
  EXPECT_GT(First.BlocksProcessed, 0u);
  DataflowResult Second = Solver.solve(G, P, SolverKind::Worklist);
  EXPECT_EQ(Second.BlocksProcessed, 0u);
  expectSameFacts(G, First, Second, "cached re-solve");
}

TEST(IncrementalSolver, LocalEditResolvesIncrementallyAndExactly) {
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    FlowGraph G = generateStructuredProgram(Seed);
    TinyAssigned P(G);
    DataflowSolver Solver;
    DataflowResult First = Solver.solve(G, P, SolverKind::Worklist);

    // Append a definition of an existing variable to one mid block —
    // a stamped local edit, as every transform performs.
    BlockId Target = G.numBlocks() / 2;
    G.block(Target).Instrs.insert(G.block(Target).Instrs.begin(),
                                  G.block(0).Instrs.empty()
                                      ? Instr::skip()
                                      : G.block(0).Instrs.front());
    G.touchBlock(Target);

    DataflowResult Incremental = Solver.solve(G, P, SolverKind::Worklist);
    DataflowSolver FreshSolver;
    DataflowResult Fresh = FreshSolver.solve(G, P, SolverKind::Worklist);
    expectSameFacts(G, Incremental, Fresh,
                    "seed " + std::to_string(Seed));
    // The dirty closure is a strict subset of the graph here, so the
    // incremental solve must touch fewer blocks than the fresh one.
    EXPECT_LT(Incremental.BlocksProcessed, Fresh.BlocksProcessed)
        << "seed " << Seed;
  }
}

TEST(IncrementalSolver, RoundRobinStillMatchesWorklistAfterEdits) {
  for (uint64_t Seed = 20; Seed < 24; ++Seed) {
    FlowGraph G = generateIrreducibleCfg(Seed);
    TinyAssigned P(G);
    DataflowSolver Solver;
    Solver.solve(G, P, SolverKind::Worklist);
    if (!G.block(1).Instrs.empty()) {
      G.block(1).Instrs.pop_back();
      G.touchBlock(1);
    }
    DataflowResult Incremental = Solver.solve(G, P, SolverKind::Worklist);
    DataflowResult RoundRobin = solve(G, P, SolverKind::RoundRobin);
    expectSameFacts(G, Incremental, RoundRobin,
                    "irreducible seed " + std::to_string(Seed));
  }
}

TEST(IncrementalSolver, StructuralChangeInvalidatesAndStaysExact) {
  FlowGraph G = figure10a();
  TinyAssigned P(G);
  DataflowSolver Solver;
  Solver.solve(G, P, SolverKind::Worklist);
  G.splitCriticalEdges(); // structural: new blocks and rewired edges
  DataflowResult AfterSplit = Solver.solve(G, P, SolverKind::Worklist);
  DataflowResult Fresh = solve(G, P, SolverKind::Worklist);
  expectSameFacts(G, AfterSplit, Fresh, "after split");
}

//===----------------------------------------------------------------------===//
// Pattern table generations
//===----------------------------------------------------------------------===//

TEST(AmContextTest, PatternGenerationAdvancesOnlyOnUniverseChange) {
  FlowGraph G = figure4();
  G.splitCriticalEdges();
  AmContext Ctx;
  Ctx.refreshPatterns(G);
  uint64_t Gen0 = Ctx.patternGeneration();

  // No mutation: refresh is a no-op.
  Ctx.refreshPatterns(G);
  EXPECT_EQ(Ctx.patternGeneration(), Gen0);

  // A stamped mutation that leaves the pattern universe unchanged (the
  // block merely gets touched) rebuilds the table but must keep the
  // generation, so solver caches keyed on it survive.
  G.touchBlock(G.start());
  Ctx.refreshPatterns(G);
  EXPECT_EQ(Ctx.patternGeneration(), Gen0);

  // Removing every occurrence of some pattern shrinks the universe: the
  // generation must advance.
  bool Removed = false;
  for (BlockId B = 0; B < G.numBlocks() && !Removed; ++B) {
    auto &Instrs = G.block(B).Instrs;
    for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
      if (Instrs[Idx].isAssign()) {
        Instrs.erase(Instrs.begin() + static_cast<long>(Idx));
        G.touchBlock(B);
        Removed = true;
        break;
      }
    }
  }
  ASSERT_TRUE(Removed);
  AssignPatternTable Check;
  Check.build(G);
  Ctx.refreshPatterns(G);
  if (Check.size() != 0 && Check.size() == Ctx.patterns().size()) {
    // The removed occurrence was a duplicate; universe unchanged.
    EXPECT_EQ(Ctx.patternGeneration(), Gen0);
  } else {
    EXPECT_NE(Ctx.patternGeneration(), Gen0);
  }
}

//===----------------------------------------------------------------------===//
// Differential sweeps: incremental vs from-scratch
//===----------------------------------------------------------------------===//

TEST(IncrementalAm, MatchesFreshAnalysesOnPaperFigures) {
  expectIncrementalMatchesFresh(figure1a(), "figure1a");
  expectIncrementalMatchesFresh(figure4(), "figure4");
  expectIncrementalMatchesFresh(figure5(), "figure5");
  expectIncrementalMatchesFresh(figure10a(), "figure10a");
  expectIncrementalMatchesFresh(figure16(), "figure16");
  expectIncrementalMatchesFresh(figure17a(), "figure17a");
}

TEST(IncrementalAm, MatchesFreshAnalysesOnRandomCorpus) {
  for (uint64_t Seed = 0; Seed < 12; ++Seed)
    expectIncrementalMatchesFresh(generateStructuredProgram(Seed),
                                  "structured seed " + std::to_string(Seed));
  for (uint64_t Seed = 100; Seed < 106; ++Seed)
    expectIncrementalMatchesFresh(generateIrreducibleCfg(Seed),
                                  "irreducible seed " + std::to_string(Seed));
}

TEST(IncrementalAm, PhaseProducesIdenticalFinalPrograms) {
  expectSameFinalProgram(figure4(), "figure4");
  expectSameFinalProgram(figure10a(), "figure10a");
  for (uint64_t Seed = 0; Seed < 10; ++Seed)
    expectSameFinalProgram(generateStructuredProgram(Seed),
                           "structured seed " + std::to_string(Seed));
  for (uint64_t Seed = 200; Seed < 205; ++Seed)
    expectSameFinalProgram(generateIrreducibleCfg(Seed),
                           "irreducible seed " + std::to_string(Seed));
}

//===----------------------------------------------------------------------===//
// Support pieces
//===----------------------------------------------------------------------===//

TEST(WorklistRingTest, DrainsInIterationOrderWithWraparound) {
  WorklistRing Ring;
  Ring.reset(8);
  EXPECT_TRUE(Ring.empty());
  EXPECT_EQ(Ring.pop(), WorklistRing::npos);

  Ring.push(5);
  Ring.push(2);
  Ring.push(2); // idempotent
  EXPECT_EQ(Ring.pop(), 2u);
  EXPECT_EQ(Ring.pop(), 5u);
  EXPECT_EQ(Ring.pop(), WorklistRing::npos);

  // After popping 5 the cursor sits past it; a lower index must still be
  // found on the wrap-around scan.
  Ring.push(1);
  EXPECT_EQ(Ring.pop(), 1u);
  EXPECT_TRUE(Ring.empty());
}

TEST(BitVectorTest, ForEachSetBitMatchesSetBits) {
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    BitVector V(131);
    for (size_t Idx = Seed; Idx < V.size(); Idx += (Seed + 3))
      V.set(Idx);
    std::vector<size_t> Walked;
    V.forEachSetBit([&](size_t Idx) { Walked.push_back(Idx); });
    EXPECT_EQ(Walked, V.setBits()) << "seed " << Seed;
  }
}
