//===- tests/job_test.cpp - The tools' one job path ------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// runJob (job/Job.h): how a job's outcome is classified — status, exit
// code and "[name hash]" diagnostics — and what it collects from its
// session, for every outcome amopt and ambatch report.
//
//===----------------------------------------------------------------------===//

#include "figures/PaperFigures.h"
#include "ir/Printer.h"
#include "job/Job.h"
#include "support/Stats.h"
#include "verify/FaultInjector.h"

#include <gtest/gtest.h>

#include <string>

using namespace am;

namespace {

const char *const Program = "program { x := a + b; y := a + b; out(x, y); }";

TEST(JobTest, OkJobCollectsCountersPhasesAndRemarkKinds) {
  JobRequest Req;
  Req.Name = "demo";
  Req.Source = Program;
  Req.Profile = Req.Remarks = true;
  JobResult R = runJob(std::move(Req));
  EXPECT_EQ(R.Status, "ok");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_TRUE(R.Diags.empty());
  EXPECT_EQ(R.Hash.size(), 16u);
  EXPECT_EQ(R.Pipeline.Records.size(), 1u);
  ASSERT_EQ(R.Phases.size(), 2u);
  EXPECT_EQ(R.Phases[0].first, "parse");
  EXPECT_EQ(R.Phases[1].first, "pipeline");
  EXPECT_EQ(R.Telemetry->stats().counterValue("pipeline.runs"), 1u);
  EXPECT_FALSE(R.Counters.empty());
  EXPECT_FALSE(R.RemarkKinds.empty());
}

TEST(JobTest, AGivenGraphMatchesItsSource) {
  JobRequest FromText;
  FromText.Source = printGraph(figure4());
  JobRequest FromGraph;
  FromGraph.Graph = figure4();
  EXPECT_EQ(printGraph(runJob(std::move(FromText)).Pipeline.Graph),
            printGraph(runJob(std::move(FromGraph)).Pipeline.Graph));
}

TEST(JobTest, EmptyPassSpecParsesOnly) {
  JobRequest Req;
  Req.Source = Program;
  Req.Passes.clear();
  JobResult R = runJob(std::move(Req));
  EXPECT_EQ(R.Status, "ok");
  EXPECT_GT(R.Input.numInstrs(), 0u);
  EXPECT_TRUE(R.Pipeline.Records.empty());
}

TEST(JobTest, ParseErrorIsExitTwoNamedWithoutHash) {
  JobRequest Req;
  Req.Name = "broken.am";
  Req.Source = "program {";
  JobResult R = runJob(std::move(Req));
  EXPECT_EQ(R.Status, "error");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_TRUE(R.Hash.empty());
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_EQ(R.Diags[0].rfind("[broken.am] parse error: ", 0), 0u)
      << R.Diags[0];
}

TEST(JobTest, RolledBackPassIsExitThreeTaggedWithNameAndHash) {
  fault::FaultInjector FI;
  FI.arm(fault::FaultClass::RaeFlipBit);
  FI.install();
  JobRequest Req;
  Req.Name = "fig4";
  Req.Graph = figure4();
  Req.Pipeline.Guarded = true;
  JobResult R = runJob(std::move(Req));
  FI.uninstall();
  EXPECT_EQ(R.Status, "rolled_back");
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_EQ(R.Pipeline.RollbackCount, 1u);
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_EQ(R.Diags[0].rfind("[fig4 " + R.Hash.substr(0, 8) +
                                 "] pass 'uniform' rolled back: ",
                             0),
            0u)
      << R.Diags[0];
}

TEST(JobTest, ExhaustedBudgetIsExitFour) {
  JobRequest Req;
  Req.Source = Program;
  Req.Passes = "split,init,rae";
  Req.Pipeline.Limits.MaxInstrGrowth = 1.0001;
  JobResult R = runJob(std::move(Req));
  EXPECT_EQ(R.Status, "limits");
  EXPECT_EQ(R.ExitCode, 4);
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_NE(R.Diags.back().find("resource budget exhausted"),
            std::string::npos)
      << R.Diags.back();
}

TEST(JobTest, VerifyIRViolationIsExitThreeError) {
  fault::FaultInjector FI;
  FI.arm(fault::FaultClass::CorruptEdge);
  FI.install();
  JobRequest Req;
  Req.Graph = figure4();
  Req.Pipeline.VerifyIR = true;
  JobResult R = runJob(std::move(Req));
  FI.uninstall();
  EXPECT_EQ(R.Status, "error");
  EXPECT_EQ(R.ExitCode, 3);
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_NE(R.Diags[0].find("pipeline error: "), std::string::npos)
      << R.Diags[0];
}

} // namespace
