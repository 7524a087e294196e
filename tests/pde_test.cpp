//===- tests/pde_test.cpp - Partial dead code elimination tests -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "gen/RandomProgram.h"
#include "interp/Equivalence.h"
#include "transform/CopyPropagation.h"
#include "transform/LazyCodeMotion.h"
#include "transform/PartialDeadCodeElim.h"
#include "transform/UniformEmAm.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

namespace {

/// The from-scratch reference for one sinking round: a fresh pattern
/// table (first-occurrence numbering, so index order is output order),
/// delayability and liveness from denseSolve, and the N-LATEST /
/// X-LATEST formulas over per-instruction vectors.  Every occurrence is
/// deleted; each latest point whose left-hand side is live (or used
/// there) re-materializes its pattern.  Returns true if \p G changed.
bool referenceSinkingRound(FlowGraph &G) {
  AssignPatternTable Pats;
  Pats.build(G);
  if (Pats.size() == 0)
    return false;
  DenseProblem DelayP = denseBlocking(Pats, Direction::Forward);
  DenseSolution Delay = denseSolve(G, DelayP);
  DenseProblem LiveP = denseLiveness(G.Vars.size());
  DenseSolution Live = denseSolve(G, LiveP);
  std::vector<std::vector<Instr>> NewLists(G.numBlocks());
  BitVector Gen, Kill;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const auto &Instrs = G.block(B).Instrs;
    size_t N = Instrs.size();
    std::vector<BitVector> LiveAfter(N);
    BitVector Cur = Live.Exit[B];
    for (size_t Idx = N; Idx-- > 0;) {
      LiveAfter[Idx] = Cur;
      LiveP.Kill(Instrs[Idx], Kill);
      LiveP.Gen(Instrs[Idx], Gen);
      Cur.andNot(Kill);
      Cur |= Gen;
    }
    auto Emit = [&](size_t Pat) {
      NewLists[B].push_back(
          Instr::assign(Pats.pattern(Pat).Lhs, Pats.pattern(Pat).Rhs));
    };
    Cur = Delay.Entry[B];
    for (size_t Idx = 0; Idx < N; ++Idx) {
      const Instr &I = Instrs[Idx];
      DelayP.Gen(I, Gen);
      DelayP.Kill(I, Kill);
      // N-LATEST = N-DELAY* · BLOCKED, guarded by liveness.
      for (size_t Pat : (Cur & Kill).setBits()) {
        VarId Lhs = Pats.pattern(Pat).Lhs;
        if (I.usesVar(Lhs) ||
            (LiveAfter[Idx].test(index(Lhs)) && I.definedVar() != Lhs))
          Emit(Pat);
      }
      if (denseOccurrence(Pats, I) == AssignPatternTable::npos)
        NewLists[B].push_back(I);
      Cur.andNot(Kill);
      Cur |= Gen;
    }
    // X-LATEST = X-DELAY* · ∃succ ¬N-DELAY*, guarded by liveness at exit.
    BitVector AnySuccStops(Pats.size());
    for (BlockId S : G.block(B).Succs)
      AnySuccStops |= ~Delay.Entry[S];
    for (size_t Pat : (Delay.Exit[B] & AnySuccStops).setBits())
      if (Live.Exit[B].test(index(Pats.pattern(Pat).Lhs)))
        Emit(Pat);
  }
  bool Changed = false;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    if (NewLists[B] != G.block(B).Instrs) {
      G.block(B).Instrs = std::move(NewLists[B]);
      G.touchBlock(B);
      Changed = true;
    }
  }
  return Changed;
}

/// Drives PDE round by round on one SinkingContext next to the
/// from-scratch reference: after every round the two graphs must print
/// identically, and the context's delayability and liveness rows (in
/// its stable numbering) must equal denseSolve over the graph the round
/// decided on.
void expectIncrementalMatchesReference(FlowGraph G, const std::string &Name) {
  G.splitCriticalEdges();
  FlowGraph Ref = G;
  SinkingContext Ctx;
  for (unsigned Round = 1; Round <= 64; ++Round) {
    std::string Where = Name + ", round " + std::to_string(Round);
    FlowGraph Decided = G;
    bool Changed = Ctx.round(G);
    const AssignPatternTable &Pats = Ctx.patterns();
    if (Pats.size() != 0) {
      DenseSolution Delay =
          denseSolve(Decided, denseBlocking(Pats, Direction::Forward));
      DenseSolution Live =
          denseSolve(Decided, denseLiveness(Decided.Vars.size()));
      for (BlockId B = 0; B < Decided.numBlocks(); ++B) {
        ASSERT_EQ(Ctx.delayability().entryRow(B).toBitVector(),
                  Delay.Entry[B])
            << Where << ": delay entry of b" << B;
        ASSERT_EQ(Ctx.delayability().exitRow(B).toBitVector(), Delay.Exit[B])
            << Where << ": delay exit of b" << B;
        ASSERT_EQ(Ctx.liveness().entryRow(B).toBitVector(), Live.Entry[B])
            << Where << ": live-in of b" << B;
        ASSERT_EQ(Ctx.liveness().exitRow(B).toBitVector(), Live.Exit[B])
            << Where << ": live-out of b" << B;
      }
    }
    bool RefChanged = referenceSinkingRound(Ref);
    ASSERT_EQ(printGraph(G), printGraph(Ref)) << Where;
    ASSERT_EQ(Changed, RefChanged) << Where;
    if (!Changed)
      return;
  }
  FAIL() << Name << ": sinking did not stabilize within 64 rounds";
}

/// The baselines workload's input to PDE: EM+CP over a generated program.
FlowGraph baselinesInput(uint64_t Seed, unsigned Stmts) {
  GenOptions Opts;
  Opts.TargetStmts = Stmts;
  Opts.NumVars = 12;
  Opts.PatternPoolSize = 40;
  FlowGraph G = runLazyCodeMotion(generateStructuredProgram(Seed, Opts));
  runCopyPropagation(G);
  return runLazyCodeMotion(G);
}

} // namespace

TEST(Pde, RemovesTotallyDeadAssignments) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  y := 1
  out(y)
  halt
}
)");
  PdeStats Stats = runPartialDeadCodeElim(G);
  EXPECT_EQ(countAssigns(G, "x", "a + b"), 0u);
  EXPECT_EQ(countAssigns(G, "y", "1"), 1u);
  EXPECT_EQ(Stats.Removed, 1);
}

TEST(Pde, CollapsesOverwrittenAssignments) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := 1
  x := 2
  out(x)
  halt
}
)");
  runPartialDeadCodeElim(G);
  EXPECT_EQ(countAssigns(G, "x", "1"), 0u);
  EXPECT_EQ(countAssigns(G, "x", "2"), 1u);
}

TEST(Pde, SinksIntoTheUsingBranchOnly) {
  // x := a+b is dead on the else-path: after PDE it is computed only on
  // the path that prints it ("partially dead" elimination).
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  if c > 0 then b1 else b2
b1:
  out(x)
  goto b3
b2:
  out(c)
  goto b3
b3:
  halt
}
)");
  FlowGraph Before = G;
  G.splitCriticalEdges();
  runPartialDeadCodeElim(G);
  EXPECT_EQ(countAssigns(G, "x", "a + b"), 1u);
  EXPECT_EQ(countInBlock(G, 0, "x := a + b"), 0u) << printGraph(G);
  EXPECT_EQ(countInBlock(G, 1, "x := a + b"), 1u) << printGraph(G);
  for (int64_t C : {-1, 1}) {
    auto Rep = checkEquivalent(Before, G, {{"a", 2}, {"b", 3}, {"c", C}});
    EXPECT_TRUE(Rep.Equivalent) << Rep.Detail;
  }
  // Dynamic win: the else-path no longer evaluates a+b.
  auto ElsePath = run(G, {{"c", -1}});
  EXPECT_EQ(ElsePath.Stats.ExprEvaluations, 0u);
}

TEST(Pde, DoesNotSinkPastUses) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  y := x + 1
  out(y, x)
  halt
}
)");
  runPartialDeadCodeElim(G);
  // Order preserved: x's definition still precedes its use.
  EXPECT_EQ(printInstr(G.block(0).Instrs[0], G.Vars), "x := a + b");
  EXPECT_EQ(countAssigns(G, "x", "a + b"), 1u);
}

TEST(Pde, DoesNotSinkOutOfLoops) {
  // The assignment's operand i changes each iteration: the last value is
  // the one used after the loop, and sinking out would be wrong here
  // since s is used by out() inside... keep it simple: semantics hold.
  FlowGraph G = parse(R"(
program {
  i := 0;
  repeat {
    s := i * 2;
    i := i + 1;
  } until (i >= n);
  out(s);
}
)");
  FlowGraph Before = G;
  G.splitCriticalEdges();
  runPartialDeadCodeElim(G);
  EXPECT_TRUE(G.validate().empty());
  for (int64_t N : {0, 1, 5}) {
    auto Rep = checkEquivalent(Before, G, {{"n", N}});
    EXPECT_TRUE(Rep.Equivalent) << Rep.Detail << " n=" << N;
  }
}

TEST(Pde, IsIdempotent) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  y := 5
  if c > 0 then b1 else b2
b1:
  out(x)
  goto b3
b2:
  out(y)
  goto b3
b3:
  halt
}
)");
  G.splitCriticalEdges();
  runPartialDeadCodeElim(G);
  FlowGraph Once = G;
  PdeStats Again = runPartialDeadCodeElim(G);
  EXPECT_EQ(Again.Removed, 0);
  EXPECT_TRUE(structurallyEqual(Once, G));
}

class PdeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PdeSweep, PreservesSemanticsAndNeverAddsWork) {
  FlowGraph G = generateStructuredProgram(GetParam());
  FlowGraph P = G;
  P.splitCriticalEdges();
  runPartialDeadCodeElim(P);
  EXPECT_TRUE(P.validate().empty());
  // Note: the *static* size may grow (sinking duplicates an assignment
  // into sibling branches); the dynamic count below must never grow.
  for (uint64_t Run = 0; Run < 3; ++Run) {
    std::unordered_map<std::string, int64_t> In = {
        {"v0", int64_t(Run) - 1}, {"v1", 4}, {"v2", -7}};
    auto Rep = checkEquivalent(G, P, In, Run);
    ASSERT_TRUE(Rep.Equivalent)
        << Rep.Detail << "\nseed " << GetParam() << "\nbefore:\n"
        << printGraph(G) << "after:\n" << printGraph(P);
    auto RunBefore = Interpreter::execute(G, In, Run);
    auto RunAfter = Interpreter::execute(P, In, Run);
    EXPECT_LE(RunAfter.Stats.AssignExecutions,
              RunBefore.Stats.AssignExecutions)
        << "seed " << GetParam();
  }
}

TEST_P(PdeSweep, ComposesWithUniformEmAm) {
  FlowGraph G = generateStructuredProgram(GetParam());
  FlowGraph U = runUniformEmAm(G);
  FlowGraph UP = U;
  UP.splitCriticalEdges();
  runPartialDeadCodeElim(UP);
  for (uint64_t Run = 0; Run < 2; ++Run) {
    std::unordered_map<std::string, int64_t> In = {{"v0", 2}, {"v3", -5}};
    auto Rep = checkEquivalent(G, UP, In, Run);
    ASSERT_TRUE(Rep.Equivalent) << Rep.Detail << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdeSweep, ::testing::Range<uint64_t>(0, 25));

TEST(PdeIncremental, MatchesReferenceOnStructuredSeeds) {
  for (uint64_t Seed = 0; Seed < 25 && !HasFatalFailure(); ++Seed)
    expectIncrementalMatchesReference(generateStructuredProgram(Seed),
                                      "structured seed " +
                                          std::to_string(Seed));
}

TEST(PdeIncremental, MatchesReferenceOnIrreducibleCfgs) {
  for (uint64_t Seed = 0; Seed < 25 && !HasFatalFailure(); ++Seed)
    expectIncrementalMatchesReference(generateIrreducibleCfg(Seed),
                                      "irreducible seed " +
                                          std::to_string(Seed));
}

TEST(PdeIncremental, MatchesReferenceOnBundledExamples) {
  unsigned Seen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(AM_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".am" || HasFatalFailure())
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Src;
    Src << In.rdbuf();
    expectIncrementalMatchesReference(parse(Src.str()),
                                      Entry.path().filename().string());
    ++Seen;
  }
  EXPECT_GE(Seen, 5u);
}

TEST(PdeIncremental, MatchesReferenceAfterEmCp) {
  for (uint64_t Seed = 0; Seed < 8 && !HasFatalFailure(); ++Seed)
    expectIncrementalMatchesReference(baselinesInput(Seed, 400),
                                      "lcm,cp,lcm seed " +
                                          std::to_string(Seed));
}

/// Minimized from program 10 of the baselines-2k workload (seed 61) after
/// lcm,cp,lcm.  Round 3 deletes `v5 := h21` from b3, the pattern's first
/// occurrence, so from round 4 on it ranks after `h32 := v10 - -4`.  b9's
/// inputs do not change in round 4: it keeps its decision, two exit
/// inserts of those patterns, which must come out in the new rank order.
TEST(PdeIncremental, RankFlipKeptDecision) {
  FlowGraph G = parse(R"(
graph {
temp h3, h4, h9, h10, h16, h21, h32, h106, h433, h434, h441
b0:
  goto b1
b1:
  if h3 > h4 then b3 else b4
b2:
  h441 := h9 * v5
  h10 := h441
  goto b5
b3:
  v5 := h21
  goto b2
b4:
  goto b2
b5:
  h32 := v10 - -4
  v0 := h32
  v5 := h106
  goto b7
b6:
  out(v0, v5, v10)
  halt
b7:
  if h433 > h434 then b8 else b9
b8:
  v10 := h16
  goto b6
b9:
  v5 := h21
  goto b6
}
)");
  expectIncrementalMatchesReference(G, "rank flip");
  G.splitCriticalEdges();
  runPartialDeadCodeElim(G);
  const auto &B9 = G.block(9).Instrs;
  ASSERT_EQ(B9.size(), 2u) << printGraph(G);
  EXPECT_EQ(printInstr(B9[0], G.Vars), "h32 := v10 - -4");
  EXPECT_EQ(printInstr(B9[1], G.Vars), "v5 := h21");
}
