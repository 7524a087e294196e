//===- tests/edge_cases_test.cpp - Corner-case coverage --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Corner cases across the whole stack: degenerate programs, traps,
/// multi-way nondeterminism, pipeline options, and baseline edge
/// behaviour.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "figures/PaperFigures.h"
#include "interp/Equivalence.h"
#include "transform/LazyCodeMotion.h"
#include "transform/RestrictedAssignmentMotion.h"
#include "transform/UniformEmAm.h"

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

//===----------------------------------------------------------------------===//
// Degenerate programs through every pass
//===----------------------------------------------------------------------===//

namespace {

const char *DegenerateSources[] = {
    // Single empty block.
    "graph { b0:\n halt\n }",
    // Only an out.
    "graph { b0:\n out(x)\n halt\n }",
    // Only skips.
    "graph { b0:\n skip\n skip\n halt\n }",
    // Empty structured program.
    "program { }",
    // A single copy.
    "program { x := y; out(x); }",
    // Constants only.
    "program { x := 1; y := 2; out(x, y); }",
};

} // namespace

TEST(EdgeCases, EveryPassHandlesDegeneratePrograms) {
  for (const char *Src : DegenerateSources) {
    FlowGraph G = parse(Src);
    for (int Pass = 0; Pass < 4; ++Pass) {
      FlowGraph T = Pass == 0   ? runUniformEmAm(G)
                    : Pass == 1 ? runLazyCodeMotion(G)
                    : Pass == 2 ? runBusyCodeMotion(G)
                                : runAssignmentMotionOnly(G);
      EXPECT_TRUE(T.validate().empty()) << Src << " pass " << Pass;
      auto Rep = checkEquivalent(G, T, {{"x", 3}, {"y", 4}});
      EXPECT_TRUE(Rep.Equivalent) << Src << " pass " << Pass << ": "
                                  << Rep.Detail;
    }
  }
}

TEST(EdgeCases, SingleBlockStartIsEnd) {
  FlowGraph G = parse("graph { b0:\n x := a + b\n x := a + b\n out(x)\n halt\n }");
  EXPECT_EQ(G.start(), G.end());
  FlowGraph U = runUniformEmAm(G);
  auto Rep = checkEquivalent(G, U, {{"a", 1}, {"b", 2}});
  ASSERT_TRUE(Rep.Equivalent) << Rep.Detail;
  // The duplicate evaluation disappears.
  EXPECT_EQ(Rep.Rhs.Stats.ExprEvaluations, 1u);
  EXPECT_EQ(Rep.Lhs.Stats.ExprEvaluations, 2u);
}

//===----------------------------------------------------------------------===//
// Traps
//===----------------------------------------------------------------------===//

TEST(EdgeCases, UniformPreservesTrapsOnStraightLine) {
  FlowGraph G = parse(R"(
graph {
b0:
  q := a / b
  q := a / b
  out(q)
  halt
}
)");
  FlowGraph U = runUniformEmAm(G);
  // Trapping input: both trap.
  auto RepTrap = checkEquivalent(G, U, {{"a", 1}, {"b", 0}});
  EXPECT_TRUE(RepTrap.Equivalent) << RepTrap.Detail;
  EXPECT_EQ(RepTrap.Lhs.St, ExecResult::Status::Trapped);
  EXPECT_EQ(RepTrap.Rhs.St, ExecResult::Status::Trapped);
  // Non-trapping input: identical outputs, one division saved.
  auto Rep = checkEquivalent(G, U, {{"a", 12}, {"b", 3}});
  EXPECT_TRUE(Rep.Equivalent) << Rep.Detail;
  EXPECT_LT(Rep.Rhs.Stats.ExprEvaluations, Rep.Lhs.Stats.ExprEvaluations);
}

TEST(EdgeCases, RedundantTrappingAssignmentStillTrapsOnce) {
  // rae may remove the second division — the first still traps.
  FlowGraph G = parse(R"(
graph {
b0:
  q := a / b
  c := 1
  q := a / b
  out(q, c)
  halt
}
)");
  FlowGraph Am = runAssignmentMotionOnly(G);
  EXPECT_EQ(countAssigns(Am, "q", "a / b"), 1u);
  EXPECT_EQ(Interpreter::execute(Am, {{"a", 1}, {"b", 0}}).St,
            ExecResult::Status::Trapped);
}

//===----------------------------------------------------------------------===//
// Nondeterminism corner cases
//===----------------------------------------------------------------------===//

TEST(EdgeCases, ThreeWayNondeterministicBranch) {
  FlowGraph G = parse(R"(
graph {
b0:
  br b1 b2 b3
b1:
  x := 1
  goto b4
b2:
  x := 2
  goto b4
b3:
  x := 3
  goto b4
b4:
  out(x)
  halt
}
)");
  EXPECT_TRUE(G.validate().empty());
  bool Saw[4] = {false, false, false, false};
  for (uint64_t Seed = 0; Seed < 32; ++Seed) {
    auto Out = run(G, {}, Seed).Output;
    ASSERT_EQ(Out.size(), 1u);
    ASSERT_GE(Out[0], 1);
    ASSERT_LE(Out[0], 3);
    Saw[Out[0]] = true;
  }
  EXPECT_TRUE(Saw[1] && Saw[2] && Saw[3]);
  // Passes handle >2-way branches.
  FlowGraph U = runUniformEmAm(G);
  EXPECT_TRUE(U.validate().empty());
  for (uint64_t Seed = 0; Seed < 8; ++Seed)
    EXPECT_TRUE(checkEquivalent(G, U, {}, Seed).Equivalent);
}

TEST(EdgeCases, HoistingAcrossThreeWayBranchNeedsAllArms) {
  FlowGraph G = parse(R"(
graph {
b0:
  br b1 b2 b3
b1:
  x := a + b
  goto b4
b2:
  x := a + b
  goto b4
b3:
  x := a + b
  goto b4
b4:
  out(x)
  halt
}
)");
  FlowGraph Am = runAssignmentMotionOnly(G);
  EXPECT_EQ(countAssigns(Am, "x", "a + b"), 1u);
  EXPECT_EQ(countInBlock(Am, Am.start(), "x := a + b"), 1u);
}

//===----------------------------------------------------------------------===//
// Pipeline options
//===----------------------------------------------------------------------===//

TEST(EdgeCases, MaxAmIterationsCapsTheFixpoint) {
  UniformOptions OneRound;
  OneRound.MaxAmIterations = 1;
  UniformStats Stats;
  runUniformEmAm(figure4(), OneRound, &Stats);
  EXPECT_EQ(Stats.AmPhase.Iterations, 1u);

  UniformStats Full;
  runUniformEmAm(figure4(), UniformOptions(), &Full);
  EXPECT_GT(Full.AmPhase.Iterations, 1u);
}

TEST(EdgeCases, SimplifyResultFalseKeepsSynthetics) {
  UniformOptions Keep;
  Keep.SimplifyResult = false;
  FlowGraph U = runUniformEmAm(figure10a(), Keep);
  bool HasSynthetic = false;
  for (BlockId B = 0; B < U.numBlocks(); ++B)
    HasSynthetic |= U.block(B).Synthetic;
  EXPECT_TRUE(HasSynthetic);
  EXPECT_TRUE(U.validate().empty());
}

TEST(EdgeCases, StatsPointerIsOptional) {
  // Must not crash without a stats out-parameter.
  FlowGraph U = runUniformEmAm(figure4());
  EXPECT_TRUE(U.validate().empty());
}

//===----------------------------------------------------------------------===//
// Baseline corner cases
//===----------------------------------------------------------------------===//

TEST(EdgeCases, RestrictedAmStillDoesPlainEliminations) {
  // Fully redundant assignments need no hoisting; restricted AM removes
  // them like the unrestricted variant.
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  y := 1
  x := a + b
  out(x, y)
  halt
}
)");
  FlowGraph R = runRestrictedAssignmentMotion(G);
  EXPECT_EQ(countAssigns(R, "x", "a + b"), 1u);
}

TEST(EdgeCases, RestrictedAmPerformsProfitableHoistings) {
  // Figure 2's motion *is* immediately profitable, so the restricted
  // variant finds it too.
  FlowGraph R = runRestrictedAssignmentMotion(figure2a());
  EXPECT_EQ(countAssigns(R, "x", "a + b"), 1u);
  for (uint64_t Seed = 0; Seed < 4; ++Seed)
    EXPECT_TRUE(
        checkEquivalent(figure2a(), R, {{"a", 1}, {"b", 2}}, Seed).Equivalent);
}

TEST(EdgeCases, LcmReplacesBranchConditionOperands) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  if a + b > 0 then b1 else b2
b1:
  goto b2
b2:
  out(x)
  halt
}
)");
  FlowGraph Em = runLazyCodeMotion(G);
  auto Rep = checkEquivalent(G, Em, {{"a", 2}, {"b", 5}});
  ASSERT_TRUE(Rep.Equivalent) << Rep.Detail;
  // One evaluation instead of two: the condition reuses the temporary.
  EXPECT_EQ(Rep.Rhs.Stats.ExprEvaluations, 1u);
  EXPECT_EQ(Rep.Lhs.Stats.ExprEvaluations, 2u);
}

TEST(EdgeCases, SameExpressionOnBothConditionSides) {
  FlowGraph G = parse(R"(
graph {
b0:
  if a + b >= a + b then b1 else b2
b1:
  x := 1
  goto b3
b2:
  x := 2
  goto b3
b3:
  out(x)
  halt
}
)");
  FlowGraph U = runUniformEmAm(G);
  auto Rep = checkEquivalent(G, U, {{"a", 1}, {"b", 2}});
  ASSERT_TRUE(Rep.Equivalent) << Rep.Detail;
  EXPECT_EQ(Rep.Lhs.Output, (std::vector<int64_t>{1}));
  // The duplicated operand evaluation is shared.
  EXPECT_LT(Rep.Rhs.Stats.ExprEvaluations, Rep.Lhs.Stats.ExprEvaluations);
}

TEST(EdgeCases, SelfReferentialChainsSurviveEveryPass) {
  FlowGraph G = parse(R"(
program {
  i := 0;
  repeat {
    i := i + 1;
    j := j + i;
    j := j + i;
  } until (i >= 5);
  out(i, j);
}
)");
  for (int Pass = 0; Pass < 3; ++Pass) {
    FlowGraph T = Pass == 0   ? runUniformEmAm(G)
                  : Pass == 1 ? runLazyCodeMotion(G)
                              : runAssignmentMotionOnly(G);
    auto Rep = checkEquivalent(G, T, {});
    EXPECT_TRUE(Rep.Equivalent) << "pass " << Pass << ": " << Rep.Detail;
  }
}

TEST(EdgeCases, OutOrderingIsPreservedExactly) {
  FlowGraph G = parse(R"(
program {
  x := a + b;
  out(x);
  y := a + b;
  out(y, x);
  out(x, y, a);
}
)");
  FlowGraph U = runUniformEmAm(G);
  auto Rep = checkEquivalent(G, U, {{"a", 3}, {"b", 4}});
  ASSERT_TRUE(Rep.Equivalent) << Rep.Detail;
  EXPECT_EQ(Rep.Lhs.Output, (std::vector<int64_t>{7, 7, 7, 7, 7, 3}));
}
