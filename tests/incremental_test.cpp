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
/// pattern universe grows.  The context's stable pattern numbering is
/// checked against the fresh first-occurrence numbering the one-shot
/// entry points use: same program bytes and AM counters everywhere.
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
#include "transform/Initialization.h"
#include "transform/Normalize.h"
#include "transform/RedundantAssignElim.h"
#include "support/Profiler.h"
#include "support/Stats.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

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

/// The context's table, refreshed over the blocks stamped since its last
/// refresh, must equal a full build of the same graph on a table with the
/// same history (\p Full, generation \p FullGen): the same occurrences,
/// ranks, rank order, masks, eligibility and generation.
void expectRefreshMatchesFullBuild(const FlowGraph &G, AmContext &Ctx,
                                   AssignPatternTable &Full,
                                   uint64_t &FullGen,
                                   const std::string &Where) {
  Ctx.refreshPatterns(G);
  if (Full.build(G))
    ++FullGen;
  const AssignPatternTable &Pats = Ctx.patterns();
  EXPECT_EQ(Ctx.patternGeneration(), FullGen) << Where;
  ASSERT_EQ(Pats.size(), Full.size()) << Where;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (size_t Idx = 0; Idx < G.block(B).Instrs.size(); ++Idx)
      ASSERT_EQ(Pats.occurrenceAt(B, Idx), Full.occurrenceAt(B, Idx))
          << Where << ": b" << B << " instruction " << Idx;
  for (size_t Pat = 0; Pat < Pats.size(); ++Pat) {
    ASSERT_TRUE(Pats.pattern(Pat) == Full.pattern(Pat)) << Where;
    ASSERT_EQ(Pats.rank(Pat), Full.rank(Pat)) << Where << ": pattern " << Pat;
  }
  EXPECT_EQ(Pats.byRank(), Full.byRank()) << Where;
  EXPECT_EQ(Pats.redundancyEligible(), Full.redundancyEligible()) << Where;
  auto SameMask = [](const BitVector *A, const BitVector *B) {
    return A == B || (A && B && *A == *B);
  };
  for (uint32_t V = 0; V < G.Vars.size(); ++V) {
    EXPECT_TRUE(SameMask(Pats.defMask(makeVarId(V)), Full.defMask(makeVarId(V))))
        << Where << ": def mask of " << G.Vars.name(makeVarId(V));
    EXPECT_TRUE(SameMask(Pats.lhsMask(makeVarId(V)), Full.lhsMask(makeVarId(V))))
        << Where << ": lhs mask of " << G.Vars.name(makeVarId(V));
  }
}

/// The AM rounds of expectSameFinalProgram once more, checking the
/// context's refreshed table after every rae and every aht; returns the
/// final program.
FlowGraph runCheckingRefreshes(const FlowGraph &Base,
                               const std::string &Context) {
  FlowGraph G = Base;
  G.splitCriticalEdges();
  AmContext Ctx;
  AssignPatternTable Full;
  uint64_t FullGen = 0;
  for (unsigned Round = 1; Round < 256 && !::testing::Test::HasFailure();
       ++Round) {
    std::string Where = Context + ", round " + std::to_string(Round);
    unsigned Eliminated = runRedundantAssignmentElimination(G, Ctx);
    expectRefreshMatchesFullBuild(G, Ctx, Full, FullGen, Where + " rae");
    bool Hoisted = runAssignmentHoisting(G, Ctx);
    expectRefreshMatchesFullBuild(G, Ctx, Full, FullGen, Where + " aht");
    if (Eliminated == 0 && !Hoisted)
      break;
  }
  return G;
}

/// Runs the AM phase once with a persistent context (stable pattern
/// numbering) and once as a pure from-scratch alternation of the one-shot
/// entry points (a fresh first-occurrence numbering every call); the
/// final programs must print identically and the am.* counters agree.
void expectSameFinalProgram(const FlowGraph &Base, const std::string &Context) {
  FlowGraph WithCtx = Base;
  WithCtx.splitCriticalEdges();
  AmContext Ctx;
  telemetry::Session Job;
  AmPhaseStats StatsCtx;
  {
    telemetry::SessionScope Scope(Job);
    StatsCtx = runAssignmentMotionPhase(WithCtx, Ctx);
  }

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
  EXPECT_EQ(printGraph(runCheckingRefreshes(Base, Context)),
            printGraph(Scratch))
      << Context;
  EXPECT_EQ(StatsCtx.Iterations, StatsScratch.Iterations) << Context;
  EXPECT_EQ(StatsCtx.Eliminated, StatsScratch.Eliminated) << Context;
  EXPECT_EQ(StatsCtx.HoistRounds, StatsScratch.HoistRounds) << Context;
  const stats::Registry &S = Job.stats();
  EXPECT_EQ(S.counterValue("am.rounds"), StatsScratch.Iterations) << Context;
  EXPECT_EQ(S.counterValue("am.eliminated"), StatsScratch.Eliminated)
      << Context;
  EXPECT_EQ(S.counterValue("am.hoist_rounds"), StatsScratch.HoistRounds)
      << Context;
}

/// The uniform pass's view of \p Input: skips removed, critical edges
/// split, temporaries initialized — the program the AM phase sees.
FlowGraph amInput(const FlowGraph &Input) {
  FlowGraph G = Input;
  removeSkips(G);
  G.splitCriticalEdges();
  runInitializationPhase(G);
  return G;
}

/// Every bundled example program.
std::vector<std::pair<std::string, FlowGraph>> examplePrograms() {
  std::vector<std::pair<std::string, FlowGraph>> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(AM_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".am")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Src;
    Src << In.rdbuf();
    Out.push_back({Entry.path().filename().string(), parse(Src.str())});
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Solver-level contracts
//===----------------------------------------------------------------------===//

TEST(IncrementalSolver, FullyCachedSolveDoesNoBlockWork) {
  FlowGraph G = generateStructuredProgram(7);
  TinyAssigned P(G);
  DataflowSolver Solver;
  DataflowResult First = Solver.solve(G, P);
  EXPECT_GT(First.BlocksProcessed, 0u);
  DataflowResult Second = Solver.solve(G, P);
  EXPECT_EQ(Second.BlocksProcessed, 0u);
  expectSameFacts(G, First, Second, "cached re-solve");
}

TEST(IncrementalSolver, LocalEditResolvesIncrementallyAndExactly) {
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    FlowGraph G = generateStructuredProgram(Seed);
    TinyAssigned P(G);
    DataflowSolver Solver;
    DataflowResult First = Solver.solve(G, P);

    // Append a definition of an existing variable to one mid block —
    // a stamped local edit, as every transform performs.
    BlockId Target = G.numBlocks() / 2;
    G.block(Target).Instrs.insert(G.block(Target).Instrs.begin(),
                                  G.block(0).Instrs.empty()
                                      ? Instr::skip()
                                      : G.block(0).Instrs.front());
    G.touchBlock(Target);

    DataflowResult Incremental = Solver.solve(G, P);
    DataflowSolver FreshSolver;
    DataflowResult Fresh = FreshSolver.solve(G, P);
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
    Solver.solve(G, P);
    if (!G.block(1).Instrs.empty()) {
      G.block(1).Instrs.pop_back();
      G.touchBlock(1);
    }
    DataflowResult Incremental = Solver.solve(G, P);
    expectMatchesDense(G, Incremental, denseSolve(G, P),
                       "irreducible seed " + std::to_string(Seed));
  }
}

TEST(IncrementalSolver, StructuralChangeInvalidatesAndStaysExact) {
  FlowGraph G = figure10a();
  TinyAssigned P(G);
  DataflowSolver Solver;
  Solver.solve(G, P);
  G.splitCriticalEdges(); // structural: new blocks and rewired edges
  DataflowResult AfterSplit = Solver.solve(G, P);
  DataflowResult Fresh = solve(G, P);
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
  size_t Size0 = Ctx.patterns().size();

  // No mutation: refresh is a no-op.
  Ctx.refreshPatterns(G);
  EXPECT_EQ(Ctx.patternGeneration(), Gen0);

  // A stamped mutation that leaves the pattern universe unchanged (the
  // block merely gets touched) rebuilds the table but must keep the
  // generation, so solver caches keyed on it survive.
  G.touchBlock(G.start());
  Ctx.refreshPatterns(G);
  EXPECT_EQ(Ctx.patternGeneration(), Gen0);

  // Removing every occurrence of a pattern loses it, but its slot and
  // every other index stay put: the generation must not advance.
  size_t Lost = AssignPatternTable::npos;
  for (BlockId B = 0; B < G.numBlocks() && Lost == AssignPatternTable::npos;
       ++B) {
    auto &Instrs = G.block(B).Instrs;
    for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
      size_t Pat = Ctx.patterns().occurrence(Instrs[Idx]);
      if (Pat == AssignPatternTable::npos)
        continue;
      Lost = Pat;
      break;
    }
  }
  ASSERT_NE(Lost, AssignPatternTable::npos);
  AssignPat LostPat = Ctx.patterns().pattern(Lost);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    auto &Instrs = G.block(B).Instrs;
    size_t Before = Instrs.size();
    Instrs.erase(std::remove_if(Instrs.begin(), Instrs.end(),
                                [&](const Instr &I) {
                                  return I.isAssign() &&
                                         I.Lhs == LostPat.Lhs &&
                                         I.Rhs == LostPat.Rhs;
                                }),
                 Instrs.end());
    if (Instrs.size() != Before)
      G.touchBlock(B);
  }
  Ctx.refreshPatterns(G);
  EXPECT_EQ(Ctx.patternGeneration(), Gen0);
  EXPECT_EQ(Ctx.patterns().size(), Size0);
  EXPECT_EQ(Ctx.patterns().indexOf(LostPat.Lhs, LostPat.Rhs), Lost);
  EXPECT_EQ(Ctx.patterns().rank(Lost), AssignPatternTable::NoRank);

  // Growing the universe appends and advances the generation.
  VarId Fresh = G.Vars.getOrCreate("fresh_lhs");
  G.block(G.start()).Instrs.insert(G.block(G.start()).Instrs.begin(),
                                   Instr::assign(Fresh, LostPat.Rhs));
  G.touchBlock(G.start());
  Ctx.refreshPatterns(G);
  EXPECT_NE(Ctx.patternGeneration(), Gen0);
  EXPECT_EQ(Ctx.patterns().size(), Size0 + 1);
  EXPECT_EQ(Ctx.patterns().indexOf(Fresh, LostPat.Rhs), Size0);
  EXPECT_EQ(Ctx.patterns().rank(Size0), 0u);
}

TEST(AmContextTest, UniverseGrowthBetweenRoundsMatchesFreshSolves) {
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    std::string Where = "seed " + std::to_string(Seed);
    FlowGraph G = amInput(generateStructuredProgram(Seed));
    AmContext Ctx;
    runRedundantAssignmentElimination(G, Ctx);
    runAssignmentHoisting(G, Ctx);
    size_t Size0 = Ctx.patterns().size();
    uint64_t Gen0 = Ctx.patternGeneration();
    ASSERT_GT(Size0, 0u) << Where;

    // A pattern no round could produce: a new left-hand side over an
    // existing right-hand side, in the middle of the program.
    AssignPat Some = Ctx.patterns().pattern(0);
    VarId Fresh = G.Vars.getOrCreate("grown" + std::to_string(Seed));
    BlockId Mid = G.numBlocks() / 2;
    G.block(Mid).Instrs.insert(G.block(Mid).Instrs.begin(),
                               Instr::assign(Fresh, Some.Rhs));
    G.touchBlock(Mid);

    Ctx.refreshPatterns(G);
    const AssignPatternTable &Pats = Ctx.patterns();
    ASSERT_EQ(Pats.size(), Size0 + 1) << Where;
    EXPECT_EQ(Pats.indexOf(Fresh, Some.Rhs), Size0) << Where;
    EXPECT_NE(Ctx.patternGeneration(), Gen0) << Where;

    // The context's solvers (warm, but keyed on the old generation) must
    // agree with fresh solves over the same numbering...
    RedundancyAnalysis Red = RedundancyAnalysis::run(
        G, Pats, Ctx.redundancySolver(), Ctx.patternGeneration());
    HoistabilityAnalysis Hoist =
        HoistabilityAnalysis::run(G, Pats, Ctx.hoistSolver(),
                                  Ctx.hoistLocals(), Ctx.patternGeneration());
    RedundancyAnalysis FreshRed = RedundancyAnalysis::run(G, Pats);
    HoistabilityAnalysis FreshHoist = HoistabilityAnalysis::run(G, Pats);
    // ... and with a fresh first-occurrence numbering, bit by bit.
    AssignPatternTable Renumbered;
    Renumbered.build(G);
    RedundancyAnalysis RenRed = RedundancyAnalysis::run(G, Renumbered);
    for (BlockId B = 0; B < G.numBlocks(); ++B) {
      EXPECT_EQ(Red.entry(B), FreshRed.entry(B)) << Where << " b" << B;
      EXPECT_EQ(Red.exit(B), FreshRed.exit(B)) << Where << " b" << B;
      EXPECT_EQ(Hoist.entryHoistable(B), FreshHoist.entryHoistable(B))
          << Where << " b" << B;
      EXPECT_EQ(Hoist.locBlocked(B), FreshHoist.locBlocked(B))
          << Where << " b" << B;
      EXPECT_EQ(Hoist.locHoistable(B), FreshHoist.locHoistable(B))
          << Where << " b" << B;
      for (size_t Pat = 0; Pat < Pats.size(); ++Pat) {
        if (Pats.rank(Pat) == AssignPatternTable::NoRank)
          continue;
        size_t Ren = Renumbered.indexOf(Pats.pattern(Pat).Lhs,
                                        Pats.pattern(Pat).Rhs);
        ASSERT_NE(Ren, AssignPatternTable::npos) << Where;
        EXPECT_EQ(Renumbered.rank(Ren), Pats.rank(Pat)) << Where;
        EXPECT_EQ(Red.entry(B).test(Pat), RenRed.entry(B).test(Ren))
            << Where << " b" << B << " pattern " << Pat;
        EXPECT_EQ(Red.exit(B).test(Pat), RenRed.exit(B).test(Ren))
            << Where << " b" << B << " pattern " << Pat;
      }
    }
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

TEST(IncrementalAm, StableNumberingMatchesFreshNumberingOnCorpus) {
  for (uint64_t Seed = 0; Seed < 120 && !HasFailure(); ++Seed)
    expectSameFinalProgram(amInput(generateStructuredProgram(Seed)),
                           "structured seed " + std::to_string(Seed));
  for (uint64_t Seed = 0; Seed < 30 && !HasFailure(); ++Seed)
    expectSameFinalProgram(amInput(generateIrreducibleCfg(Seed)),
                           "irreducible seed " + std::to_string(Seed));
  for (const auto &[Name, G] : examplePrograms())
    expectSameFinalProgram(amInput(G), Name);
  for (const ProgramShape &S : programShapes())
    for (uint64_t Seed = 0; Seed < 10 && !HasFailure(); ++Seed)
      expectSameFinalProgram(amInput(generateStructuredProgram(Seed, S.Opts)),
                             std::string(S.Name) + " seed " +
                                 std::to_string(Seed));
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
// Motion planes: live runs, and the flush on the AM phase's solvers
//===----------------------------------------------------------------------===//

namespace {

/// A program whose pattern universe spans several slice groups.
FlowGraph wideProgram() {
  GenOptions Opts;
  Opts.TargetStmts = 3000;
  Opts.NumVars = 24;
  Opts.PatternPoolSize = 320;
  return amInput(generateStructuredProgram(61, Opts));
}

/// At every round of the AM phase, forEachInsert — which skips the runs
/// the live flags call dead — must give what the N-INSERT / X-INSERT
/// formulas give over the materialized entry() / exit() vectors.
void expectInsertsMatchVectors(FlowGraph G, const std::string &Context) {
  G.splitCriticalEdges();
  AmContext Ctx;
  for (unsigned Round = 1; Round < 256; ++Round) {
    std::string Where = Context + ", round " + std::to_string(Round);
    Ctx.refreshPatterns(G);
    const AssignPatternTable &Pats = Ctx.patterns();
    if (Pats.size() == 0)
      return;
    {
      HoistabilityAnalysis H =
          HoistabilityAnalysis::run(G, Pats, Ctx.hoistSolver(),
                                    Ctx.hoistLocals(), Ctx.patternGeneration());
      // Collected before anything materializes the facts.
      std::vector<BitVector> Entry(G.numBlocks(), Pats.makeVector());
      std::vector<BitVector> Exit(G.numBlocks(), Pats.makeVector());
      for (BlockId B = 0; B < G.numBlocks(); ++B)
        H.forEachInsert(
            B, [&](size_t Pat) { Entry[B].set(Pat); },
            [&](size_t Pat) { Exit[B].set(Pat); });
      for (BlockId B = 0; B < G.numBlocks(); ++B) {
        BitVector WantEntry = H.entryHoistable(B);
        if (B != G.start()) {
          BitVector AnyPredStops = Pats.makeVector();
          for (BlockId P : G.block(B).Preds)
            AnyPredStops |= ~H.exitHoistable(P);
          WantEntry &= AnyPredStops;
        }
        ASSERT_EQ(Entry[B], WantEntry) << Where << ": N-INSERT b" << B;
        ASSERT_EQ(Exit[B], H.exitHoistable(B) & H.locBlocked(B))
            << Where << ": X-INSERT b" << B;
      }
    }
    unsigned Eliminated = runRedundantAssignmentElimination(G, Ctx);
    bool Hoisted = runAssignmentHoisting(G, Ctx);
    if (Eliminated == 0 && !Hoisted)
      return;
  }
  FAIL() << Context << ": AM fixpoint did not stabilize";
}

} // namespace

TEST(LiveRuns, ForEachInsertMatchesVectorReference) {
  for (uint64_t Seed = 0; Seed < 30 && !HasFailure(); ++Seed)
    expectInsertsMatchVectors(amInput(generateStructuredProgram(Seed)),
                              "structured seed " + std::to_string(Seed));
  for (uint64_t Seed = 0; Seed < 10 && !HasFailure(); ++Seed)
    expectInsertsMatchVectors(amInput(generateIrreducibleCfg(Seed)),
                              "irreducible seed " + std::to_string(Seed));
  for (const auto &[Name, G] : examplePrograms())
    expectInsertsMatchVectors(amInput(G), Name);
  expectInsertsMatchVectors(wideProgram(), "wide program");
}

/// Heap bytes requested under the flush's two solves (the
/// `analysis.delayability` and `analysis.usability` spans) of \p Run.
template <typename RunFn> uint64_t flushSolveBytes(RunFn Run) {
  telemetry::Session S;
  telemetry::SessionScope Scope(S);
  S.profiler().setEnabled(true);
  Run();
  uint64_t Bytes = 0;
  for (uint32_t Id = 0; Id < S.profiler().numNodes(); ++Id) {
    const prof::Profiler::Node &N = S.profiler().node(Id);
    if (N.Name == "analysis.delayability" || N.Name == "analysis.usability")
      Bytes += N.AllocBytes;
  }
  return Bytes;
}

/// The uniform pipeline runs the flush on the AM phase's solvers, whose
/// arenas already hold planes as wide as the flush's: its two solves
/// must allocate less than one flush plane, where fresh solvers allocate
/// at least two.
TEST(MotionPlanes, FlushOnAmSolversAllocatesLessThanOnePlane) {
  if (!prof::allocTrackingAvailable())
    GTEST_SKIP() << "operator new is not interposed in this build";
  FlowGraph G = wideProgram();
  AmContext Ctx;
  runAssignmentMotionPhase(G, Ctx);
  size_t Temps = 0;
  uint64_t Reused = flushSolveBytes([&] {
    FlushAnalysis F =
        FlushAnalysis::run(G, Ctx.redundancySolver(), Ctx.hoistSolver());
    Temps = F.universe().size();
  });
  ASSERT_GT(Temps, 64u);
  uint64_t Plane = G.numBlocks() * ((Temps + 63) / 64) * sizeof(uint64_t);
  EXPECT_LT(Reused, Plane);
  EXPECT_GE(flushSolveBytes([&] { FlushAnalysis::run(G); }), 2 * Plane);
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
