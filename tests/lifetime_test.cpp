//===- tests/lifetime_test.cpp - Lifetime metric & BCM tests ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the live-range metrics (the quantity of Theorem 5.4) and the
/// busy-code-motion baseline: BCM must match LCM (and the uniform
/// algorithm) in expression evaluations while paying longer temporary
/// lifetimes — the classic busy-vs-lazy contrast of refs [15, 16].
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Lifetime.h"
#include "figures/PaperFigures.h"
#include "gen/RandomProgram.h"
#include "interp/Equivalence.h"
#include "transform/LazyCodeMotion.h"
#include "transform/UniformEmAm.h"

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

TEST(Lifetime, CountsLiveTempPoints) {
  FlowGraph G = parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  c := 1
  x := h1
  out(x, c)
  halt
}
)");
  LifetimeStats S = computeLifetimeStats(G);
  // h1 live after its def, across c := 1, up to its use: 2 points
  // (before c := 1 and before x := h1).
  EXPECT_EQ(S.TempLifetimePoints, 2u);
  EXPECT_EQ(S.TempAssignments, 1u);
  EXPECT_EQ(S.MaxLiveTemps, 1u);
  EXPECT_GT(S.TotalLifetimePoints, S.TempLifetimePoints);
}

TEST(Lifetime, NoTempsMeansZero) {
  LifetimeStats S = computeLifetimeStats(figure4());
  EXPECT_EQ(S.TempLifetimePoints, 0u);
  EXPECT_EQ(S.TempAssignments, 0u);
}

TEST(Lifetime, LazyPlacementShortensLifetimes) {
  // The init right before the use has a shorter live range than the init
  // at the block entry.
  FlowGraph Busy = parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  c := 1
  d := 2
  x := h1
  out(x, c, d)
  halt
}
)");
  FlowGraph Lazy = parse(R"(
graph {
temp h1
b0:
  c := 1
  d := 2
  h1 := a + b
  x := h1
  out(x, c, d)
  halt
}
)");
  EXPECT_GT(computeLifetimeStats(Busy).TempLifetimePoints,
            computeLifetimeStats(Lazy).TempLifetimePoints);
}

TEST(Bcm, DiamondPlacesEarliest) {
  FlowGraph G = parse(R"(
graph {
b0:
  br b1 b2
b1:
  x := a + b
  goto b3
b2:
  goto b3
b3:
  y := a + b
  out(x, y)
  halt
}
)");
  FlowGraph Bcm = runBusyCodeMotion(G);
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    auto Rep = checkEquivalent(G, Bcm, {{"a", 1}, {"b", 2}}, Seed);
    ASSERT_TRUE(Rep.Equivalent) << Rep.Detail;
    // One evaluation per path (optimal).
    EXPECT_EQ(Rep.Rhs.Stats.ExprEvaluations, 1u);
  }
}

TEST(Bcm, HoistsIntoStartWhenAnticipated) {
  FlowGraph G = parse(R"(
graph {
b0:
  c := 1
  br b1 b2
b1:
  x := a + b
  goto b3
b2:
  y := a + b
  goto b3
b3:
  out(x, y, c)
  halt
}
)");
  FlowGraph Bcm = runBusyCodeMotion(G);
  // a+b is anticipated at the entry: BCM computes it in b0 (earliest).
  EXPECT_GE(countComputations(Bcm, "a + b"), 1u);
  EXPECT_EQ(countInBlock(Bcm, Bcm.start(), "h1 := a + b") +
                countInBlock(Bcm, Bcm.start(), "h1_ := a + b"),
            1u)
      << printGraph(Bcm);
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    auto Rep = checkEquivalent(G, Bcm, {{"a", 3}, {"b", 4}}, Seed);
    ASSERT_TRUE(Rep.Equivalent) << Rep.Detail;
  }
}

TEST(Bcm, RespectsDownSafety) {
  // Not anticipated on the exit path: must not hoist above the loop test.
  FlowGraph G = parse(R"(
program {
  i := 0;
  while (i < n) {
    x := a + b;
    i := i + 1;
  }
  out(x, i);
}
)");
  FlowGraph Bcm = runBusyCodeMotion(G);
  for (int64_t N : {0, 3}) {
    auto Rep = checkEquivalent(G, Bcm, {{"n", N}, {"a", 1}, {"b", 2}});
    ASSERT_TRUE(Rep.Equivalent) << Rep.Detail;
    // n = 0: zero evaluations — nothing was speculated.
    if (N == 0) {
      EXPECT_EQ(Rep.Rhs.Stats.ExprEvaluations, 0u);
    }
  }
}

class BcmSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BcmSweep, MatchesLcmEvaluationsWithLongerLifetimes) {
  FlowGraph G = generateStructuredProgram(GetParam());
  FlowGraph Bcm = runBusyCodeMotion(G);
  FlowGraph Lcm = runLazyCodeMotion(G);

  for (uint64_t Run = 0; Run < 3; ++Run) {
    std::unordered_map<std::string, int64_t> In = {
        {"v0", int64_t(Run)}, {"v1", -1}, {"v2", 6}};
    auto RepB = checkEquivalent(G, Bcm, In, Run);
    ASSERT_TRUE(RepB.Equivalent)
        << RepB.Detail << " seed " << GetParam() << "\n" << printGraph(Bcm);
    auto RunLcm = Interpreter::execute(Lcm, In, Run);
    // Busy and lazy placement are computationally equivalent.
    EXPECT_EQ(RepB.Rhs.Stats.ExprEvaluations, RunLcm.Stats.ExprEvaluations)
        << "seed " << GetParam();
  }
  // Lazy placement never has longer temporary live ranges than busy.
  EXPECT_LE(computeLifetimeStats(Lcm).TempLifetimePoints,
            computeLifetimeStats(Bcm).TempLifetimePoints)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcmSweep, ::testing::Range<uint64_t>(0, 25));
