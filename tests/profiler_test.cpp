//===- tests/profiler_test.cpp - Self-profiler tests -----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The hierarchical self-profiler (support/Profiler.h): phase-tree
// construction, determinism of the tree shape across runs, zero cost when
// disabled or compiled out, tolerance of unbalanced instrumentation, and
// the JSON / collapsed-stack renderings.
//
//===----------------------------------------------------------------------===//

#include "dfa/Dataflow.h"
#include "figures/PaperFigures.h"
#include "ir/Printer.h"
#include "support/Json.h"
#include "support/Profiler.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "transform/UniformEmAm.h"

#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <vector>

using namespace am;

namespace am::test {
size_t profileCompiledOutScopes(); // profiler_disabled_helper.cpp
} // namespace am::test

namespace {

/// A fresh session with its profiler switched on, installed for the
/// test's duration.
struct ProfiledSession {
  telemetry::Session S;
  telemetry::SessionScope Scope;
  ProfiledSession() : Scope(S) { S.profiler().setEnabled(true); }
  prof::Profiler &prof() { return S.profiler(); }
};

TEST(ProfilerTest, DisabledByDefaultCreatesNoNodes) {
  telemetry::Session S;
  telemetry::SessionScope Scope(S);
  {
    AM_SPAN(Never, "never");
  }
  EXPECT_EQ(S.profiler().numNodes(), 1u); // just the root
  EXPECT_EQ(S.profiler().treeShape(), "root");
}

TEST(ProfilerTest, BuildsTheTreeInFirstEntryOrder) {
  ProfiledSession P;
  for (int I = 0; I < 2; ++I) {
    AM_SPAN(Outer, "outer");
    {
      AM_SPAN(First, "first");
    }
    {
      AM_SPAN(Second, "second");
    }
  }
  {
    AM_SPAN(Tail, "tail");
  }
  EXPECT_EQ(P.prof().treeShape(),
            "root{outer(2){first(2),second(2)},tail(1)}");
}

TEST(ProfilerTest, SameNameUnderDifferentParentsIsDifferentNodes) {
  ProfiledSession P;
  {
    AM_SPAN(A, "a");
    AM_SPAN(Solve, "solve");
  }
  {
    AM_SPAN(B, "b");
    AM_SPAN(Solve, "solve");
  }
  EXPECT_EQ(P.prof().treeShape(), "root{a(1){solve(1)},b(1){solve(1)}}");
  EXPECT_EQ(P.prof().numNodes(), 5u);
}

TEST(ProfilerTest, AccumulatesWallTimeAndCalls) {
  ProfiledSession P;
  for (int I = 0; I < 3; ++I) {
    AM_SPAN(Work, "work");
    // Touch the heap so the allocation delta is visibly attributed.
    std::vector<int> V(1024, I);
    ASSERT_EQ(V.size(), 1024u);
  }
  ASSERT_EQ(P.prof().numNodes(), 2u);
  const prof::Profiler::Node &N = P.prof().node(1);
  EXPECT_EQ(N.Name, "work");
  EXPECT_EQ(N.Calls, 3u);
  EXPECT_GT(N.WallNs, 0u);
  if (prof::allocTrackingAvailable()) {
    EXPECT_GE(N.AllocBytes, 3 * 1024 * sizeof(int));
    EXPECT_GE(N.AllocCalls, 3u);
  }
  EXPECT_GE(N.LastEndUs, N.FirstStartUs);
}

TEST(ProfilerTest, UnbalancedLeaveIsIgnored) {
  ProfiledSession P;
  P.prof().leave(); // no matching enter
  P.prof().leave();
  EXPECT_EQ(P.prof().depth(), 0u);
  {
    AM_SPAN(Ok, "ok");
  }
  P.prof().leave(); // unbalanced again, after real traffic
  EXPECT_EQ(P.prof().treeShape(), "root{ok(1)}");
}

TEST(ProfilerTest, DanglingEnterSurvivesReset) {
  ProfiledSession P;
  P.prof().enter("left_open");
  EXPECT_EQ(P.prof().depth(), 1u);
  P.prof().reset();
  EXPECT_EQ(P.prof().depth(), 0u);
  EXPECT_EQ(P.prof().numNodes(), 1u);
  EXPECT_EQ(P.prof().treeShape(), "root");
}

TEST(ProfilerTest, ScopeCapturesProfilerAtEntry) {
  // Disabling mid-scope must not unbalance the stack: the span latched
  // the enabled decision at construction.
  ProfiledSession P;
  {
    AM_SPAN(Latch, "latch");
    P.prof().setEnabled(false);
  }
  EXPECT_EQ(P.prof().depth(), 0u);
  EXPECT_EQ(P.prof().node(1).Calls, 1u);
}

TEST(ProfilerTest, TreeShapeIsDeterministicAcrossRuns) {
  // The acceptance bar: profiling the same optimization twice (fresh
  // session each time) yields byte-identical tree shapes, and the
  // optimized program is byte-identical with profiling on or off.
  FlowGraph Input = figure4();
  auto RunProfiled = [&](std::string &Shape) {
    telemetry::Session S;
    telemetry::SessionScope Scope(S);
    S.profiler().setEnabled(true);
    FlowGraph Out = runUniformEmAm(Input);
    Shape = S.profiler().treeShape();
    return Out;
  };
  std::string ShapeA, ShapeB;
  FlowGraph OutA = RunProfiled(ShapeA);
  FlowGraph OutB = RunProfiled(ShapeB);
  EXPECT_EQ(ShapeA, ShapeB);
  EXPECT_NE(ShapeA.find("uniform"), std::string::npos) << ShapeA;
  EXPECT_NE(ShapeA.find("init"), std::string::npos) << ShapeA;
  EXPECT_NE(ShapeA.find("rae"), std::string::npos) << ShapeA;
  EXPECT_NE(ShapeA.find("aht"), std::string::npos) << ShapeA;
  EXPECT_NE(ShapeA.find("flush"), std::string::npos) << ShapeA;
  EXPECT_NE(ShapeA.find("dfa.solve"), std::string::npos) << ShapeA;

  // Profiling never perturbs the optimization itself.
  telemetry::Session Plain;
  telemetry::SessionScope PlainScope(Plain);
  FlowGraph OutPlain = runUniformEmAm(Input);
  EXPECT_EQ(printGraph(OutA), printGraph(OutPlain));
  EXPECT_EQ(printGraph(OutA), printGraph(OutB));
}

/// The subtree of the first node named \p Name in a treeShape() string:
/// from the name through its matching closing brace.
static std::string subtree(const std::string &Shape,
                           const std::string &Name) {
  size_t At = Shape.find(Name + "(");
  if (At == std::string::npos)
    return "";
  size_t Open = Shape.find('{', At);
  size_t Close = Shape.find_first_of(",}", At);
  if (Open == std::string::npos || Close < Open)
    return Shape.substr(At, Close - At);
  int Depth = 0;
  for (size_t I = Open; I < Shape.size(); ++I) {
    Depth += Shape[I] == '{' ? 1 : Shape[I] == '}' ? -1 : 0;
    if (Depth == 0)
      return Shape.substr(At, I + 1 - At);
  }
  return Shape.substr(At);
}

TEST(ProfilerTest, SolveSplitsIntoComposeFixpointAndMaterialize) {
  // Every dfa.solve names its layers: the iteration order and the plane
  // reshape (each only on a solve that must redo it: here, a solver's
  // first), transfer composition and the fixpoint (the transposed
  // engine's slices run inside it).  No pass of the pipeline exports a
  // solution: rae, aht and the flush all read the solvers' own words.
  std::string Shape;
  {
    ProfiledSession P;
    runUniformEmAm(figure4());
    Shape = P.prof().treeShape();
  }
  std::regex Split("dfa\\.solve\\(\\d+\\)\\{dfa\\.order\\(\\d+\\),"
                   "dfa\\.reshape\\(\\d+\\),dfa\\.compose\\(\\d+\\),"
                   "dfa\\.fixpoint\\(\\d+\\)\\{"
                   "dfa\\.solve\\.slice\\(\\d+\\)\\}");
  std::string Rae = subtree(Shape, "rae");
  std::string Aht = subtree(Shape, "aht");
  EXPECT_TRUE(std::regex_search(Rae, Split)) << Shape;
  EXPECT_TRUE(std::regex_search(Aht, Split)) << Shape;
  ASSERT_FALSE(subtree(Shape, "am.fixpoint").empty()) << Shape;
  std::string Flush = subtree(Shape, "flush");
  EXPECT_NE(Flush.find("dfa.fixpoint"), std::string::npos) << Shape;
  EXPECT_EQ(Shape.find("dfa.materialize"), std::string::npos) << Shape;
  // A round after the first reuses its solver's order and planes.
  EXPECT_NE(Rae.find("dfa.order(1),dfa.reshape(1)"), std::string::npos)
      << Shape;
}

TEST(ProfilerTest, CompiledOutScopesCreateNothingEvenWhenEnabled) {
  ProfiledSession P;
  EXPECT_EQ(am::test::profileCompiledOutScopes(), 0u);
  EXPECT_EQ(P.prof().treeShape(), "root");
}

TEST(ProfilerTest, JsonIsValidAndCarriesTheSchema) {
  ProfiledSession P;
  {
    AM_SPAN(Phase, "phase");
    AM_SPAN(Sub, "sub");
  }
  std::string J = P.prof().toJsonString();
  std::string Error;
  EXPECT_TRUE(json::validate(J, &Error)) << Error << "\n" << J;
  EXPECT_NE(J.find("\"schema\":\"amprof-v1\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"shape\":"), std::string::npos) << J;
  EXPECT_NE(J.find("\"collapsed\":"), std::string::npos) << J;
  EXPECT_NE(J.find("\"name\":\"phase\""), std::string::npos) << J;
}

TEST(ProfilerTest, RootWallCoversItsChildren) {
  ProfiledSession P;
  {
    AM_SPAN(Outer, "outer");
    AM_SPAN(Inner, "inner");
    std::vector<int> V(4096, 1);
    ASSERT_EQ(V.size(), 4096u);
  }
  std::unique_ptr<json::Value> Doc = json::parse(P.prof().toJsonString());
  ASSERT_TRUE(Doc);
  const json::Value *Tree = Doc->find("tree");
  ASSERT_TRUE(Tree);
  uint64_t ChildNs = 0;
  for (const json::Value &Child : Tree->find("children")->array())
    ChildNs += Child.getU64("wall_ns");
  EXPECT_GT(ChildNs, 0u);
  EXPECT_GT(Tree->getU64("wall_ns"), 0u);
  EXPECT_GE(Tree->getU64("wall_ns"), ChildNs);
}

TEST(ProfilerTest, CollapsedStacksJoinThePathWithSemicolons) {
  ProfiledSession P;
  {
    AM_SPAN(A, "a");
    AM_SPAN(B, "b");
  }
  std::string Folded = P.prof().toCollapsedString();
  EXPECT_NE(Folded.find("a "), std::string::npos) << Folded;
  EXPECT_NE(Folded.find("a;b "), std::string::npos) << Folded;
}

TEST(ProfilerTest, MergedTreeShapeIsSchedulingIndependent) {
  // The solver merges per-worker profilers in batch-index order, and
  // merge() visits children name-sorted — so the merged shape must
  // depend only on the *set* of scopes each worker entered, never on
  // the order scheduling happened to run them in.  Simulate two
  // schedules of the same three workers: same scopes per worker,
  // entered in different orders.
  auto RunWorker = [](prof::Profiler &P, std::vector<const char *> Scopes) {
    P.setEnabled(true);
    for (const char *S : Scopes) {
      P.enter("dfa.solve.slice");
      P.enter(S);
      P.leave();
      P.leave();
    }
  };
  prof::Profiler A1, A2, A3;
  RunWorker(A1, {"meet", "transfer"});
  RunWorker(A2, {"transfer"});
  RunWorker(A3, {"meet"});
  prof::Profiler B1, B2, B3;
  RunWorker(B1, {"transfer", "meet"}); // same scopes, swapped order
  RunWorker(B2, {"transfer"});
  RunWorker(B3, {"meet"});

  prof::Profiler SessionA, SessionB;
  SessionA.setEnabled(true);
  SessionB.setEnabled(true);
  for (prof::Profiler *W : {&A1, &A2, &A3})
    SessionA.merge(*W);
  for (prof::Profiler *W : {&B1, &B2, &B3})
    SessionB.merge(*W);
  EXPECT_EQ(SessionA.treeShape(), SessionB.treeShape());
  // And the counts aggregated across workers survive the fold.
  EXPECT_NE(SessionA.treeShape().find("dfa.solve.slice(4)"),
            std::string::npos)
      << SessionA.treeShape();
}

TEST(ProfilerTest, MemoryIntrospectionIsHonest) {
  if (prof::allocTrackingAvailable()) {
    uint64_t Bytes0 = prof::allocatedBytes();
    uint64_t Calls0 = prof::allocationCount();
    std::vector<char> *V = new std::vector<char>(4096);
    EXPECT_GE(prof::allocatedBytes() - Bytes0, 4096u);
    EXPECT_GE(prof::allocationCount() - Calls0, 1u);
    delete V;
    // Monotonic: deallocation never subtracts.
    EXPECT_GE(prof::allocatedBytes(), Bytes0 + 4096);
  }
#ifdef __linux__
  EXPECT_GT(prof::peakRssBytes(), 0u);
#endif
}

TEST(ProfilerTest, MemoryGaugesOnlyAppearWhereAvailable) {
  stats::Registry R;
  prof::recordMemoryGauges(R);
  if (prof::allocTrackingAvailable()) {
    ASSERT_NE(R.findGauge("mem.alloc_bytes"), nullptr);
    EXPECT_GT(R.findGauge("mem.alloc_bytes")->get(), 0);
    ASSERT_NE(R.findGauge("mem.alloc_count"), nullptr);
  } else {
    EXPECT_EQ(R.findGauge("mem.alloc_bytes"), nullptr);
  }
#ifdef __linux__
  ASSERT_NE(R.findGauge("mem.peak_rss_bytes"), nullptr);
  EXPECT_GT(R.findGauge("mem.peak_rss_bytes")->get(), 0);
#endif
}

} // namespace
