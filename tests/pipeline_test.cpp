//===- tests/pipeline_test.cpp - Pipeline and LVN tests --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "figures/PaperFigures.h"
#include "gen/RandomProgram.h"
#include "interp/Equivalence.h"
#include "support/Json.h"
#include "support/Trace.h"
#include "transform/LocalValueNumbering.h"
#include "transform/Pipeline.h"
#include "transform/UniformEmAm.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace am;
using namespace am::test;

//===----------------------------------------------------------------------===//
// Local value numbering
//===----------------------------------------------------------------------===//

TEST(Lvn, ReusesLocalValues) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  y := a + b
  out(x, y)
  halt
}
)");
  EXPECT_EQ(runLocalValueNumbering(G), 1u);
  EXPECT_EQ(countAssigns(G, "y", "x"), 1u);
  EXPECT_EQ(run(G, {{"a", 1}, {"b", 2}}).Stats.ExprEvaluations, 1u);
}

TEST(Lvn, RespectsKills) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  a := 5
  y := a + b
  out(x, y)
  halt
}
)");
  EXPECT_EQ(runLocalValueNumbering(G), 0u);
}

TEST(Lvn, HolderRedefinitionInvalidates) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  x := 7
  y := a + b
  out(x, y)
  halt
}
)");
  // x no longer holds a+b when y needs it.
  EXPECT_EQ(runLocalValueNumbering(G), 0u);
}

TEST(Lvn, SelfConsumingAssignmentsAreNotRecorded) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := x + 1
  y := x + 1
  out(x, y)
  halt
}
)");
  // The first x+1 refers to the *old* x: reusing it for y would be wrong.
  EXPECT_EQ(runLocalValueNumbering(G), 0u);
  EXPECT_EQ(run(G, {{"x", 5}}).Output, (std::vector<int64_t>{6, 7}));
}

TEST(Lvn, ExactRecomputationIntoSameVarBecomesSkipAndVanishes) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  x := a + b
  out(x)
  halt
}
)");
  EXPECT_EQ(runLocalValueNumbering(G), 1u);
  EXPECT_EQ(G.block(0).Instrs.size(), 2u); // x := x removed
}

TEST(Lvn, IsLocalOnly) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  goto b1
b1:
  y := a + b
  out(x, y)
  halt
}
)");
  EXPECT_EQ(runLocalValueNumbering(G), 0u); // cross-block is EM's job
}

TEST(Lvn, PreservesSemanticsOnRandomPrograms) {
  for (uint64_t Seed = 0; Seed < 15; ++Seed) {
    FlowGraph G = generateStructuredProgram(Seed);
    FlowGraph T = G;
    runLocalValueNumbering(T);
    for (uint64_t Run = 0; Run < 2; ++Run) {
      auto Rep =
          checkEquivalent(G, T, {{"v0", 3}, {"v1", int64_t(Seed)}}, Run);
      ASSERT_TRUE(Rep.Equivalent) << Rep.Detail << " seed " << Seed;
      auto Before = Interpreter::execute(G, {{"v0", 3}}, Run);
      auto After = Interpreter::execute(T, {{"v0", 3}}, Run);
      EXPECT_LE(After.Stats.ExprEvaluations, Before.Stats.ExprEvaluations);
    }
  }
}

//===----------------------------------------------------------------------===//
// Pipelines
//===----------------------------------------------------------------------===//

TEST(Pipeline, RejectsUnknownAndEmptySpecs) {
  EXPECT_FALSE(runPipeline(figure4(), "bogus").ok());
  EXPECT_FALSE(runPipeline(figure4(), "lcm,bogus,cp").ok());
  EXPECT_FALSE(runPipeline(figure4(), "").ok());
  EXPECT_TRUE(isKnownPass("uniform"));
  EXPECT_FALSE(isKnownPass("uniformx"));
}

TEST(Pipeline, UniformSpecMatchesDirectCall) {
  PipelineResult R = runPipeline(figure4(), "uniform");
  ASSERT_TRUE(R.ok());
  EXPECT_TRUE(equivalentModuloTemps(R.Graph, runUniformEmAm(figure4())));
  ASSERT_EQ(R.Log.size(), 1u);
  EXPECT_NE(R.Log[0].find("AM iterations"), std::string::npos);
}

TEST(Pipeline, PhaseSpecReproducesThePaperPipeline) {
  // split+init+am-fixpoint+flush+simplify spelled out by hand.
  PipelineResult R = runPipeline(
      figure4(), "split, init, rae, aht, rae, aht, rae, aht, rae, aht, "
                 "rae, aht, flush, simplify");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(equivalentModuloTemps(R.Graph, figure5()))
      << printGraph(R.Graph);
}

TEST(Pipeline, EmCpInterleavingFromSpec) {
  PipelineResult R = runPipeline(figure18b(), "lcm,cp,lcm,cp,lcm");
  ASSERT_TRUE(R.ok());
  for (uint64_t Seed = 0; Seed < 4; ++Seed) {
    auto Rep = checkEquivalent(figure18b(), R.Graph,
                               {{"a", 1}, {"b", 2}, {"c", 3}}, Seed);
    EXPECT_TRUE(Rep.Equivalent) << Rep.Detail;
  }
}

TEST(Pipeline, UniformThenPdeComposes) {
  PipelineResult R = runPipeline(figure4(), "uniform,pde,simplify");
  ASSERT_TRUE(R.ok());
  for (auto [X, Z] : {std::pair<int64_t, int64_t>{40, 2}, {0, 0}}) {
    auto Rep = checkEquivalent(figure4(), R.Graph,
                               {{"c", 1}, {"d", 2}, {"x", X}, {"z", Z}});
    EXPECT_TRUE(Rep.Equivalent) << Rep.Detail;
  }
}

TEST(Pipeline, LvnPlusLcmApproachesUniformOnFig1) {
  // Figure 1's within-block double computation falls to LVN; LCM then
  // handles the cross-block part: together they reach the uniform
  // algorithm's evaluation count on this example.
  FlowGraph G = figure1a();
  PipelineResult R = runPipeline(G, "lvn,lcm");
  ASSERT_TRUE(R.ok());
  FlowGraph U = runUniformEmAm(G);
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    std::unordered_map<std::string, int64_t> In = {{"a", 1}, {"b", 2}};
    auto RunPipe = Interpreter::execute(R.Graph, In, Seed);
    auto RunU = Interpreter::execute(U, In, Seed);
    EXPECT_EQ(RunPipe.Stats.ExprEvaluations, RunU.Stats.ExprEvaluations);
    EXPECT_EQ(RunPipe.Output, RunU.Output);
  }
}

TEST(Pipeline, SplitOnDemandIsLogged) {
  PipelineResult R = runPipeline(figure10a(), "aht");
  ASSERT_TRUE(R.ok());
  ASSERT_GE(R.Log.size(), 2u);
  EXPECT_NE(R.Log[0].find("split"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Pass records and tracing
//===----------------------------------------------------------------------===//

TEST(Pipeline, RecordsCaptureIrDeltasOnTheRunningExample) {
  // The paper's running example (Figure 4): the uniform algorithm must
  // observably eliminate assignments and do real dataflow work.
  FlowGraph G = figure4();
  PipelineResult R = runPipeline(G, "uniform");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Records.size(), 1u);
  ASSERT_EQ(R.Records.size(), R.Log.size());

  const PassRecord &Rec = R.Records[0];
  EXPECT_EQ(Rec.Name, "uniform");
  EXPECT_NE(Rec.Detail.find("AM iterations"), std::string::npos);
  EXPECT_EQ(Rec.BlocksBefore, G.numBlocks());
  EXPECT_EQ(Rec.InstrsBefore, G.numInstrs());
  EXPECT_EQ(Rec.BlocksAfter, R.Graph.numBlocks());
  EXPECT_EQ(Rec.InstrsAfter, R.Graph.numInstrs());
  EXPECT_GT(Rec.AmRounds, 0u);
  EXPECT_GT(Rec.AmEliminated, 0u); // assignments eliminated > 0
  EXPECT_GT(Rec.DfaSolves, 0u);
  EXPECT_GT(Rec.DfaBlocksProcessed, 0u);
  EXPECT_GT(Rec.FlushInitsDeleted, 0u); // the flush drops unjustified inits
  EXPECT_GE(Rec.WallMs, 0.0);
}

TEST(Pipeline, RecordsCoverEveryPassIncludingImplicitSplits) {
  PipelineResult R = runPipeline(figure10a(), "aht,rae");
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Records.size(), R.Log.size());
  ASSERT_EQ(R.Records.size(), 3u); // (split), aht, rae
  EXPECT_EQ(R.Records[0].Name, "(split)");
  EXPECT_EQ(R.Records[1].Name, "aht");
  EXPECT_EQ(R.Records[2].Name, "rae");
  // The split introduced blocks; the record captures the growth.
  EXPECT_GT(R.Records[0].BlocksAfter, R.Records[0].BlocksBefore);
}

TEST(Pipeline, PassRecordsRenderAsValidJson) {
  PipelineResult R = runPipeline(figure4(), "uniform,pde,simplify");
  ASSERT_TRUE(R.ok());
  std::string J = passRecordsJson(R.Records);
  std::string Error;
  EXPECT_TRUE(json::validate(J, &Error)) << Error << "\n" << J;
  EXPECT_NE(J.find("\"name\":\"uniform\""), std::string::npos);
  EXPECT_NE(J.find("\"am_eliminated\""), std::string::npos);
}

TEST(Pipeline, TraceOfAPipelineRunIsValidChromeTraceJson) {
  trace::start();
  PipelineResult R = runPipeline(figure4(), "uniform");
  ASSERT_TRUE(R.ok());
  std::string Path = testing::TempDir() + "pipeline_trace.json";
  ASSERT_TRUE(trace::stopToFile(Path));

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Trace = Buf.str();
  std::string Error;
  EXPECT_TRUE(json::validate(Trace, &Error)) << Error;
  // One span per pass, nested spans per dataflow solve, instants per AM
  // fixpoint round.
  EXPECT_NE(Trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Trace.find("\"name\":\"uniform\""), std::string::npos);
  EXPECT_NE(Trace.find("\"dfa.solve\""), std::string::npos);
  EXPECT_NE(Trace.find("\"am.round\""), std::string::npos);
  EXPECT_NE(Trace.find("\"name\":\"flush\""), std::string::npos);
}

TEST(Pipeline, RandomProgramsSurviveLongPipelines) {
  for (uint64_t Seed = 0; Seed < 10; ++Seed) {
    FlowGraph G = generateStructuredProgram(Seed);
    PipelineResult R =
        runPipeline(G, "lvn,lcm,cp,uniform,pde,simplify");
    ASSERT_TRUE(R.ok());
    EXPECT_TRUE(R.Graph.validate().empty()) << "seed " << Seed;
    auto Rep = checkEquivalent(G, R.Graph, {{"v0", 1}, {"v1", -4}});
    EXPECT_TRUE(Rep.Equivalent) << Rep.Detail << " seed " << Seed;
  }
}
