//===- tests/shapes_test.cpp - Workload-shape sweeps -----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The property suite re-run over very different program *shapes*:
/// branch-free straight-line code, loop-heavy nests, deep conditionals,
/// tiny pattern pools (maximal redundancy) and huge pools (minimal
/// redundancy).  Catches shape-dependent bugs the default generator
/// settings would miss.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "gen/RandomProgram.h"
#include "interp/Equivalence.h"
#include "transform/LazyCodeMotion.h"
#include "transform/UniformEmAm.h"

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

class ShapeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShapeSweep, UniformIsSoundAndNeverWorseAcrossShapes) {
  for (const ProgramShape &S : programShapes()) {
    FlowGraph G = generateStructuredProgram(GetParam(), S.Opts);
    ASSERT_TRUE(G.validate().empty()) << S.Name;
    FlowGraph U = runUniformEmAm(G);
    EXPECT_TRUE(U.validate().empty()) << S.Name;
    for (uint64_t Run = 0; Run < 2; ++Run) {
      std::unordered_map<std::string, int64_t> In = {
          {"v0", int64_t(GetParam()) - 2}, {"v1", 3}, {"v2", -1}};
      auto Rep = checkEquivalent(G, U, In, Run);
      ASSERT_TRUE(Rep.Equivalent)
          << S.Name << " seed " << GetParam() << ": " << Rep.Detail;
      EXPECT_LE(Rep.Rhs.Stats.ExprEvaluations, Rep.Lhs.Stats.ExprEvaluations)
          << S.Name << " seed " << GetParam();
    }
  }
}

TEST_P(ShapeSweep, LcmIsSoundAcrossShapes) {
  for (const ProgramShape &S : programShapes()) {
    FlowGraph G = generateStructuredProgram(GetParam() + 77, S.Opts);
    FlowGraph Em = runLazyCodeMotion(G);
    std::unordered_map<std::string, int64_t> In = {{"v0", 5}, {"v3", -9}};
    auto Rep = checkEquivalent(G, Em, In, GetParam());
    ASSERT_TRUE(Rep.Equivalent)
        << S.Name << " seed " << GetParam() << ": " << Rep.Detail;
  }
}

TEST_P(ShapeSweep, StraightLineUniformLeavesNoRedundancy) {
  // On branch-free code the uniform result must evaluate each *available*
  // pattern at most once between kills — idempotence plus a second
  // uniform run finding nothing is the cheap proxy.
  GenOptions Opts;
  Opts.LoopProb = 0;
  Opts.IfProb = 0;
  Opts.ChooseProb = 0;
  Opts.TargetStmts = 50;
  FlowGraph U = runUniformEmAm(generateStructuredProgram(GetParam(), Opts));
  FlowGraph Twice = runUniformEmAm(U);
  EXPECT_TRUE(equivalentModuloTemps(U, Twice)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeSweep, ::testing::Range<uint64_t>(0, 10));
