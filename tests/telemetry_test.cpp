//===- tests/telemetry_test.cpp - Session scoping tests --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// telemetry::Session scoping (support/Telemetry.h): every observability
// subsystem — stats registry, remark sink, profiler, recorder hook,
// tracing switch — is owned per session, installed sessions route the
// singleton accessors, nesting restores, and code that never installs a
// session keeps the process-default singleton behaviour.
//
//===----------------------------------------------------------------------===//

#include "figures/PaperFigures.h"
#include "report/Recorder.h"
#include "support/Profiler.h"
#include "support/Remarks.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/Trace.h"
#include "transform/Pipeline.h"
#include "transform/UniformEmAm.h"

#include <gtest/gtest.h>

using namespace am;

namespace {

TEST(TelemetryTest, DefaultSessionIsStableIdentity) {
  telemetry::Session &A = telemetry::Session::current();
  telemetry::Session &B = telemetry::Session::current();
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(&A, &telemetry::Session::processDefault());
  EXPECT_EQ(&stats::Registry::get(), &A.stats());
  EXPECT_EQ(&remarks::Sink::get(), &A.remarks());
  EXPECT_EQ(&prof::Profiler::get(), &A.profiler());
}

TEST(TelemetryTest, InstalledSessionRoutesTheAccessors) {
  telemetry::Session S;
  EXPECT_NE(&S, &telemetry::Session::processDefault());
  telemetry::SessionScope Scope(S);
  EXPECT_EQ(&telemetry::Session::current(), &S);
  EXPECT_EQ(&stats::Registry::get(), &S.stats());
  EXPECT_EQ(&remarks::Sink::get(), &S.remarks());
  EXPECT_EQ(&prof::Profiler::get(), &S.profiler());
}

TEST(TelemetryTest, ScopesNestAndRestore) {
  telemetry::Session Outer, Inner;
  telemetry::Session &Default = telemetry::Session::current();
  {
    telemetry::SessionScope OuterScope(Outer);
    EXPECT_EQ(&telemetry::Session::current(), &Outer);
    {
      telemetry::SessionScope InnerScope(Inner);
      EXPECT_EQ(&telemetry::Session::current(), &Inner);
    }
    EXPECT_EQ(&telemetry::Session::current(), &Outer);
  }
  EXPECT_EQ(&telemetry::Session::current(), &Default);
}

TEST(TelemetryTest, CountersLandInTheInstalledSession) {
  telemetry::Session A, B;
  auto BumpWorked = [] {
    // The macro's cached pointer must re-resolve when the session
    // changes (Registry::generation() differs per registry), so one
    // static instrument lands in whichever session is current.
    AM_STAT_COUNTER(Ctr, "test.telemetry_bump");
    AM_STAT_INC(Ctr);
  };
  {
    telemetry::SessionScope Scope(A);
    BumpWorked();
    BumpWorked();
  }
  {
    telemetry::SessionScope Scope(B);
    BumpWorked();
  }
  EXPECT_EQ(A.stats().counterValue("test.telemetry_bump"), 2u);
  EXPECT_EQ(B.stats().counterValue("test.telemetry_bump"), 1u);
  EXPECT_EQ(&A.stats() == &B.stats(), false);
}

TEST(TelemetryTest, RemarksIsolatePerSession) {
  telemetry::Session A, B;
  {
    telemetry::SessionScope Scope(A);
    remarks::CollectionScope Collect(true);
    remarks::Remark R;
    R.K = remarks::Kind::Eliminate;
    R.InstrId = remarks::Sink::get().freshId();
    remarks::Sink::get().add(std::move(R));
    EXPECT_EQ(remarks::Sink::get().size(), 1u);
  }
  {
    telemetry::SessionScope Scope(B);
    EXPECT_EQ(remarks::Sink::get().size(), 0u);
  }
  EXPECT_EQ(A.remarks().size(), 1u);
}

TEST(TelemetryTest, ProfilerIsolatesPerSession) {
  telemetry::Session A, B;
  A.profiler().setEnabled(true);
  B.profiler().setEnabled(true);
  {
    telemetry::SessionScope Scope(A);
    AM_SPAN(OnlyInA, "only_in_a");
  }
  {
    telemetry::SessionScope Scope(B);
    AM_SPAN(OnlyInB, "only_in_b");
  }
  EXPECT_EQ(A.profiler().treeShape(), "root{only_in_a(1)}");
  EXPECT_EQ(B.profiler().treeShape(), "root{only_in_b(1)}");
}

TEST(TelemetryTest, SpanSinksFollowTheirSessionsSwitches) {
  // One session traces, the other has its timers switched off: a span
  // feeds exactly the sinks its own session has on.
  telemetry::Session A, B;
  B.stats().setEnabled(false);
  std::string J;
  {
    telemetry::SessionScope Scope(A);
    trace::start(); // clears the collector and traces A
    AM_SPAN(InA, "traced_in_a");
  }
  {
    telemetry::SessionScope Scope(B);
    AM_SPAN(InB, "untraced_in_b");
  }
  {
    telemetry::SessionScope Scope(A);
    J = trace::stopToJson();
  }
  EXPECT_NE(J.find("\"traced_in_a\""), std::string::npos) << J;
  EXPECT_EQ(J.find("untraced_in_b"), std::string::npos) << J;
  EXPECT_FALSE(A.tracing());
  EXPECT_NE(A.stats().findTimer("traced_in_a_ns"), nullptr);
  EXPECT_EQ(B.stats().findTimer("untraced_in_b_ns"), nullptr);
}

TEST(TelemetryTest, RecorderAttachesToTheCurrentSession) {
  telemetry::Session S;
  {
    telemetry::SessionScope Scope(S);
    EXPECT_EQ(report::RecorderSession::current(), nullptr);
    report::RecorderSession Rec;
    Rec.install();
    EXPECT_EQ(report::RecorderSession::current(), &Rec);
    EXPECT_EQ(S.recorder(), &Rec);
    // The default session must not see this recorder.
    telemetry::Session &Default = telemetry::Session::processDefault();
    EXPECT_EQ(Default.recorder(), nullptr);
    Rec.uninstall();
    EXPECT_EQ(report::RecorderSession::current(), nullptr);
    EXPECT_EQ(S.recorder(), nullptr);
  }
}

TEST(TelemetryTest, PipelineRunsUnderTheSuppliedSession) {
  FlowGraph G = figure4();
  telemetry::Session Job;
  PipelineOptions Opts;
  Opts.Telemetry = &Job;
  uint64_t DefaultRuns0 =
      telemetry::Session::current().stats().counterValue("pipeline.runs");
  PipelineResult R = runPipeline(G, "uniform", Opts);
  EXPECT_TRUE(R.ok()) << R.Error;
  // The job's registry saw the run; the ambient session's did not move.
  EXPECT_EQ(Job.stats().counterValue("pipeline.runs"), 1u);
  EXPECT_EQ(
      telemetry::Session::current().stats().counterValue("pipeline.runs"),
      DefaultRuns0);
  EXPECT_GT(Job.stats().counterValue("dfa.solves"), 0u);
}

TEST(TelemetryTest, PipelineProfilesIntoTheSuppliedSession) {
  FlowGraph G = figure4();
  telemetry::Session Job;
  Job.profiler().setEnabled(true);
  PipelineOptions Opts;
  Opts.Telemetry = &Job;
  PipelineResult R = runPipeline(G, "uniform,pde,simplify", Opts);
  EXPECT_TRUE(R.ok()) << R.Error;
  std::string Shape = Job.profiler().treeShape();
  EXPECT_NE(Shape.find("pipeline"), std::string::npos) << Shape;
  EXPECT_NE(Shape.find("uniform"), std::string::npos) << Shape;
  EXPECT_NE(Shape.find("pde"), std::string::npos) << Shape;
  EXPECT_NE(Shape.find("dfa.solve"), std::string::npos) << Shape;
}

TEST(TelemetryTest, SessionsAreReusableAcrossRuns) {
  FlowGraph G = figure4();
  telemetry::Session Job;
  PipelineOptions Opts;
  Opts.Telemetry = &Job;
  EXPECT_TRUE(runPipeline(G, "uniform", Opts).ok());
  EXPECT_TRUE(runPipeline(G, "uniform", Opts).ok());
  EXPECT_EQ(Job.stats().counterValue("pipeline.runs"), 2u);
}

} // namespace
