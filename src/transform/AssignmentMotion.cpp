//===- transform/AssignmentMotion.cpp - AM phase driver ---------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/AssignmentMotion.h"
#include "report/Recorder.h"
#include "support/Remarks.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/Trace.h"
#include "transform/AssignmentHoisting.h"
#include "transform/RedundantAssignElim.h"

#include <cstdint>
#include <limits>

using namespace am;

AmPhaseStats am::runAssignmentMotionPhase(FlowGraph &G, AmContext &Ctx,
                                          unsigned MaxIterations) {
  AmPhaseStats Stats;
  AM_STAT_COUNTER(NumFixpoints, "am.fixpoints");
  AM_STAT_COUNTER(NumRounds, "am.rounds");
  AM_STAT_COUNTER(NumEliminated, "am.eliminated");
  AM_STAT_COUNTER(NumHoistRounds, "am.hoist_rounds");
  AM_STAT_INC(NumFixpoints);
  AM_SPAN(Span, "am.fixpoint");

  // The phase provably terminates (Section 4.5); the hard cap below is a
  // defensive backstop far above the quadratic worst case.  Computed in
  // 64 bits and clamped: on large programs numInstrs² overflows unsigned,
  // which could wrap the cap down to a value the phase actually reaches.
  unsigned Cap = MaxIterations;
  if (Cap == 0) {
    uint64_t Instrs = G.numInstrs();
    uint64_t Wide = Instrs * Instrs + G.numBlocks() + 16;
    Cap = Wide > std::numeric_limits<unsigned>::max()
              ? std::numeric_limits<unsigned>::max()
              : static_cast<unsigned>(Wide);
  }
  report::RecorderSession *Rec = report::RecorderSession::current();
  while (Stats.Iterations < Cap) {
    ++Stats.Iterations;
    AM_STAT_INC(NumRounds);
    AM_REMARK_SET_ROUND(Stats.Iterations);
    if (Rec)
      Rec->setRound(Stats.Iterations);
    unsigned Eliminated = runRedundantAssignmentElimination(G, Ctx);
    Stats.Eliminated += Eliminated;
    AM_STAT_ADD(NumEliminated, Eliminated);
    if (Rec)
      Rec->snapshot(G, "rae", Stats.Iterations);
    bool Hoisted = runAssignmentHoisting(G, Ctx);
    if (Hoisted) {
      ++Stats.HoistRounds;
      AM_STAT_INC(NumHoistRounds);
    }
    if (Rec)
      Rec->snapshot(G, "aht", Stats.Iterations);
    trace::instant("am.round", {{"round", Stats.Iterations},
                                {"eliminated", Eliminated},
                                {"hoisted", Hoisted ? 1 : 0}});
    if (Eliminated == 0 && !Hoisted)
      break;
  }
  AM_REMARK_SET_ROUND(0);
  if (Rec)
    Rec->setRound(0);
  Span.arg("rounds", Stats.Iterations);
  Span.arg("eliminated", Stats.Eliminated);
  Span.arg("hoist_rounds", Stats.HoistRounds);
  return Stats;
}

AmPhaseStats am::runAssignmentMotionPhase(FlowGraph &G,
                                          unsigned MaxIterations) {
  AmContext Ctx;
  return runAssignmentMotionPhase(G, Ctx, MaxIterations);
}
