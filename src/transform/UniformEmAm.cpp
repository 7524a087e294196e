//===- transform/UniformEmAm.cpp - Global algorithm driver -----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/UniformEmAm.h"
#include "report/Recorder.h"
#include "support/Telemetry.h"
#include "transform/FinalFlush.h"
#include "transform/Initialization.h"
#include "transform/Normalize.h"

using namespace am;

FlowGraph am::runUniformEmAm(const FlowGraph &G, const UniformOptions &Options,
                             UniformStats *Stats) {
  AM_SPAN(Span, "uniform");
  UniformStats Local;
  UniformStats &S = Stats ? *Stats : Local;
  report::RecorderSession *Rec = report::RecorderSession::current();

  FlowGraph Work = G;
  removeSkips(Work);
  if (Options.SplitCriticalEdges) {
    AM_SPAN(SplitSpan, "split");
    S.EdgesSplit = Work.splitCriticalEdges();
  }
  if (Rec)
    Rec->snapshot(Work, "split");

  // The motion passes are only admissible on graphs without critical
  // edges (Section 2.1); if splitting was suppressed and the graph has
  // some, return the (normalized) input unchanged.
  if (!Work.hasCriticalEdges()) {
    if (Options.RunInitialization)
      S.Decompositions = runInitializationPhase(Work);
    if (Rec)
      Rec->snapshot(Work, "init");

    // One context for the AM phase and the flush: the flush solves on
    // the AM solvers, in the arenas their planes already occupy.
    AmContext Ctx;
    S.AmPhase = runAssignmentMotionPhase(Work, Ctx, Options.MaxAmIterations);

    // The flush needs the solvers only: the pattern table's masks make
    // room for its universe.
    Ctx.releasePatterns();
    if (Options.RunFinalFlush)
      S.FlushChanged = runFinalFlush(Work, Ctx);
    if (Rec)
      Rec->snapshot(Work, "flush");
  }
  if (Options.SimplifyResult)
    simplify(Work);
  return Work;
}

FlowGraph am::runAssignmentMotionOnly(const FlowGraph &G,
                                      UniformStats *Stats) {
  UniformOptions Options;
  Options.RunInitialization = false;
  Options.RunFinalFlush = false;
  return runUniformEmAm(G, Options, Stats);
}
