//===- tests/roundtrip_test.cpp - Print/parse & solver properties -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-cutting property sweeps:
///  * printGraph -> parseCfg -> printGraph is the identity, for random
///    structured programs, irreducible CFGs, and optimizer *outputs*
///    (which contain temporaries);
///  * the dataflow solver's solutions actually satisfy their equation
///    systems (meet consistency at every block, boundary values, and
///    transfer consistency at every instruction).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/Liveness.h"
#include "analysis/PaperAnalyses.h"
#include "gen/RandomProgram.h"
#include "ir/Patterns.h"
#include "transform/LazyCodeMotion.h"
#include "transform/UniformEmAm.h"

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

namespace {

void expectRoundTrip(const FlowGraph &G, const std::string &Context) {
  std::string Printed = printGraph(G);
  ParseResult R = parseCfg(Printed);
  ASSERT_TRUE(R.ok()) << Context << ": " << R.Error << "\n" << Printed;
  EXPECT_TRUE(structurallyEqual(G, R.Graph)) << Context << "\n" << Printed;
  EXPECT_EQ(printGraph(R.Graph), Printed) << Context;
}

/// Re-derives the meet and transfer relations of a solved problem and
/// checks the stored solution satisfies them.
void expectSolutionConsistent(const FlowGraph &G, const DataflowProblem &P,
                              const DataflowResult &R) {
  bool Forward = P.direction() == Direction::Forward;
  BitVector Boundary;
  P.boundary(Boundary);

  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    // Meet consistency.
    const BitVector &MeetSide = Forward ? R.entry(B) : R.exit(B);
    BlockId BoundaryBlock = Forward ? G.start() : G.end();
    if (B == BoundaryBlock) {
      EXPECT_EQ(MeetSide, Boundary) << "boundary at block " << B;
    } else {
      const auto &Edges = Forward ? G.block(B).Preds : G.block(B).Succs;
      ASSERT_FALSE(Edges.empty());
      BitVector Expect = Forward ? R.exit(Edges[0]) : R.entry(Edges[0]);
      for (size_t Idx = 1; Idx < Edges.size(); ++Idx) {
        const BitVector &V =
            Forward ? R.exit(Edges[Idx]) : R.entry(Edges[Idx]);
        if (P.meet() == Meet::All)
          Expect &= V;
        else
          Expect |= V;
      }
      EXPECT_EQ(MeetSide, Expect) << "meet at block " << B;
    }

    // Transfer consistency, instruction by instruction.
    DataflowResult::InstrFacts F = R.instrFacts(B);
    LocalEffect E;
    for (size_t Idx = 0; Idx < G.block(B).Instrs.size(); ++Idx) {
      const Instr &I = G.block(B).Instrs[Idx];
      E.clear();
      P.effect(B, Idx, I, E);
      const BitVector &In = Forward ? F.Before[Idx] : F.After[Idx];
      const BitVector &Out = Forward ? F.After[Idx] : F.Before[Idx];
      BitVector Expect = In;
      E.apply(Expect);
      EXPECT_EQ(Out, Expect) << "transfer at block " << B << " instr " << Idx;
    }
  }
}

/// Minimal re-declaration of the liveness problem for the consistency
/// check (the production one lives in an anonymous namespace).
class CheckLiveness : public DataflowProblem {
public:
  explicit CheckLiveness(size_t NumVars) : NumVars(NumVars) {}
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

/// Forward all-path "definitely assigned" problem for the must-analysis
/// consistency check.
class CheckAssigned : public DataflowProblem {
public:
  explicit CheckAssigned(size_t NumVars) : NumVars(NumVars) {}
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

class RoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripSweep, StructuredProgramsRoundTrip) {
  expectRoundTrip(generateStructuredProgram(GetParam()), "structured");
}

TEST_P(RoundTripSweep, IrreducibleCfgsRoundTrip) {
  expectRoundTrip(generateIrreducibleCfg(GetParam()), "irreducible");
}

TEST_P(RoundTripSweep, OptimizedProgramsWithTempsRoundTrip) {
  FlowGraph G = generateStructuredProgram(GetParam());
  expectRoundTrip(runUniformEmAm(G), "uniform output");
  expectRoundTrip(runLazyCodeMotion(G), "LCM output");
}

TEST_P(RoundTripSweep, ReparsedOptimizedProgramsBehaveIdentically) {
  FlowGraph U = runUniformEmAm(generateStructuredProgram(GetParam()));
  ParseResult R = parseCfg(printGraph(U));
  ASSERT_TRUE(R.ok()) << R.Error;
  for (uint64_t Run = 0; Run < 2; ++Run) {
    auto RunA = Interpreter::execute(U, {{"v0", 3}, {"v1", -1}}, Run);
    auto RunB = Interpreter::execute(R.Graph, {{"v0", 3}, {"v1", -1}}, Run);
    EXPECT_EQ(RunA.Output, RunB.Output);
    EXPECT_EQ(RunA.Stats.TempAssignExecutions,
              RunB.Stats.TempAssignExecutions)
        << "temp-ness lost in the round trip";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSweep,
                         ::testing::Range<uint64_t>(0, 20));

class SolverConsistencySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverConsistencySweep, LivenessSolutionSatisfiesEquations) {
  FlowGraph G = generateIrreducibleCfg(GetParam());
  CheckLiveness P(G.Vars.size());
  expectSolutionConsistent(G, P, solve(G, P));
}

TEST_P(SolverConsistencySweep, MustAnalysisSolutionSatisfiesEquations) {
  FlowGraph G = generateStructuredProgram(GetParam());
  CheckAssigned P(G.Vars.size());
  expectSolutionConsistent(G, P, solve(G, P));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverConsistencySweep,
                         ::testing::Range<uint64_t>(0, 12));

class SolverEquivalenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverEquivalenceSweep, WorklistMatchesRoundRobin) {
  for (int Which = 0; Which < 2; ++Which) {
    FlowGraph G = Which ? generateIrreducibleCfg(GetParam())
                        : generateStructuredProgram(GetParam());
    CheckLiveness Live(G.Vars.size());
    CheckAssigned Assigned(G.Vars.size());
    for (const DataflowProblem *P :
         {static_cast<const DataflowProblem *>(&Live),
          static_cast<const DataflowProblem *>(&Assigned)}) {
      DataflowResult R = solve(G, *P);
      expectMatchesDense(G, R, denseSolve(G, *P),
                         "seed " + std::to_string(GetParam()));
      // The worklist solution must also satisfy the equations.
      expectSolutionConsistent(G, *P, R);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverEquivalenceSweep,
                         ::testing::Range<uint64_t>(0, 12));
