//===- tests/dfa_test.cpp - Dataflow framework tests -----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "dfa/Dataflow.h"

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

namespace {

/// Liveness of single-letter variables: backward, any-path.
class TinyLiveness : public DataflowProblem {
public:
  explicit TinyLiveness(const FlowGraph &G) : NumVars(G.Vars.size()) {}

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

/// Forward must-analysis: "definitely assigned at least once".
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

} // namespace

TEST(Dataflow, BackwardAnyLiveness) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := 1
  y := 2
  goto b1
b1:
  if x > 0 then b2 else b3
b2:
  out(y)
  goto b3
b3:
  halt
}
)");
  TinyLiveness P(G);
  DataflowResult R = solve(G, P);
  uint32_t X = index(G.Vars.lookup("x"));
  uint32_t Y = index(G.Vars.lookup("y"));
  // At b0 entry nothing is live (x, y are assigned constants first).
  EXPECT_FALSE(R.entry(0).test(X));
  EXPECT_FALSE(R.entry(0).test(Y));
  // After the defs, both x (branch) and y (out in b2) are live.
  EXPECT_TRUE(R.exit(0).test(X));
  EXPECT_TRUE(R.exit(0).test(Y));
  // y is live into b1 (may reach out(y)), x only up to the branch.
  EXPECT_TRUE(R.entry(1).test(Y));
  EXPECT_TRUE(R.entry(1).test(X));
  EXPECT_FALSE(R.exit(2).test(Y));
  EXPECT_TRUE(R.entry(2).test(Y));
}

TEST(Dataflow, InstrFactsMatchBlockBoundaries) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := 1
  y := x + 1
  out(y)
  halt
}
)");
  TinyLiveness P(G);
  DataflowResult R = solve(G, P);
  auto F = R.instrFacts(0);
  ASSERT_EQ(F.Before.size(), 3u);
  EXPECT_EQ(F.Before[0], R.entry(0));
  EXPECT_EQ(F.After[2], R.exit(0));
  // x is live exactly between its def and its use.
  uint32_t X = index(G.Vars.lookup("x"));
  EXPECT_FALSE(F.Before[0].test(X));
  EXPECT_TRUE(F.After[0].test(X));
  EXPECT_TRUE(F.Before[1].test(X));
  EXPECT_FALSE(F.After[1].test(X));
}

TEST(Dataflow, ForwardAllDefiniteAssignment) {
  FlowGraph G = parse(R"(
graph {
b0:
  br b1 b2
b1:
  x := 1
  goto b3
b2:
  y := 1
  goto b3
b3:
  out(x, y)
  halt
}
)");
  TinyAssigned P(G);
  DataflowResult R = solve(G, P);
  uint32_t X = index(G.Vars.lookup("x"));
  uint32_t Y = index(G.Vars.lookup("y"));
  // Only on one path each: the all-paths meet clears both at the join.
  EXPECT_FALSE(R.entry(3).test(X));
  EXPECT_FALSE(R.entry(3).test(Y));
  EXPECT_TRUE(R.exit(1).test(X));
  EXPECT_TRUE(R.exit(2).test(Y));
}

TEST(Dataflow, GreatestFixpointOnLoops) {
  // A fact generated before a loop must survive a loop that does not kill
  // it — the greatest-fixpoint initialization is what makes this work for
  // all-path problems with cycles.
  FlowGraph G = parse(R"(
graph {
b0:
  x := 1
  goto b1
b1:
  y := y + 1
  br b1 b2
b2:
  out(x, y)
  halt
}
)");
  TinyAssigned P(G);
  DataflowResult R = solve(G, P);
  uint32_t X = index(G.Vars.lookup("x"));
  EXPECT_TRUE(R.entry(1).test(X));
  EXPECT_TRUE(R.entry(2).test(X));
}

TEST(Dataflow, EmptyBlocksAreIdentityTransfers) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := 1
  goto b1
b1:
  goto b2
b2:
  out(x)
  halt
}
)");
  TinyAssigned P(G);
  DataflowResult R = solve(G, P);
  EXPECT_EQ(R.entry(1), R.exit(1));
  auto F = R.instrFacts(1);
  EXPECT_TRUE(F.Before.empty());
}
