//===- transform/RedundantAssignElim.cpp - rae implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/RedundantAssignElim.h"
#include "analysis/PaperAnalyses.h"
#include "ir/InstrNumbering.h"
#include "report/Recorder.h"
#include "support/Telemetry.h"
#include "transform/AssignmentMotion.h"
#include "verify/FaultInjector.h"

using namespace am;

namespace {

/// Names the occurrence that makes the kill at \p Idx redundant: the
/// nearest preceding same-pattern occurrence in the block, or — when the
/// redundancy flows in over the block entry — the predecessors whose exit
/// carries the X-REDUNDANT bit.  Purely for remark payloads.
std::string describeDefiner(const FlowGraph &G, BlockId B, size_t Idx,
                            size_t Pat, const AssignPatternTable &Pats,
                            const RedundancyAnalysis &Redundancy) {
  const auto &Instrs = G.block(B).Instrs;
  for (size_t Prev = Idx; Prev-- > 0;) {
    if (Pats.occurrenceAt(B, Prev) == Pat)
      return "#" + std::to_string(Instrs[Prev].Id) + " (same block)";
  }
  std::string Out;
  for (BlockId P : G.block(B).Preds) {
    if (Redundancy.result().exitRow(P).test(Pat)) {
      if (!Out.empty())
        Out += ", ";
      Out += "exit(b" + std::to_string(P) + ")";
    }
  }
  return Out.empty() ? std::string("entry") : Out;
}

} // namespace

unsigned am::runRedundantAssignmentElimination(FlowGraph &G, AmContext &Ctx) {
  AM_SPAN(Span, "rae");
  AM_REMARK_PASS_SCOPE("rae");
  if (AM_REMARKS_ENABLED())
    ensureInstrIds(G);
  Ctx.refreshPatterns(G);
  const AssignPatternTable &Pats = Ctx.patterns();
  if (Pats.size() == 0)
    return 0;
  RedundancyAnalysis Redundancy = RedundancyAnalysis::run(
      G, Pats, Ctx.redundancySolver(), Ctx.patternGeneration());
  if (report::RecorderSession *Rec = report::RecorderSession::current())
    Rec->captureRedundancy(G, Pats, Redundancy, Rec->round());

  // Record each block's decisions — one N-REDUNDANT bit per occurrence,
  // decided by an in-block scan — then mutate the block.
  AM_SPAN(FactsSpan, "rae.facts");
  unsigned NumEliminated = 0;
  std::vector<bool> Remove;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    auto &Instrs = G.block(B).Instrs;
    Remove.assign(Instrs.size(), false);
    unsigned RemovedHere = 0;
    Redundancy.forEachOccurrence(B, [&](size_t Idx, size_t Pat,
                                        bool Redundant) {
      if (!Redundant)
        if (fault::FaultInjector *FI = fault::FaultInjector::current())
          // rae-flip: treat one non-redundant occurrence as redundant, as
          // if a N-REDUNDANT dataflow bit were flipped.
          Redundant = FI->fire(fault::FaultClass::RaeFlipBit);
      if (!Redundant)
        return;
      Remove[Idx] = true;
      ++RemovedHere;
      if (AM_REMARKS_ENABLED()) {
        // A removal always commits (the list shrinks), so the remark can
        // be emitted directly.
        remarks::Remark R =
            describe(remarks::Kind::Eliminate, G, B, Idx, Instrs[Idx],
                     Redundancy.solveSerial());
        R.Terminal = true;
        R.fact("N-REDUNDANT", "1")
            .fact("defined_by",
                  describeDefiner(G, B, Idx, Pat, Pats, Redundancy));
        remarks::Sink::get().add(std::move(R));
      }
    });
    if (RemovedHere == 0)
      continue;
    NumEliminated += RemovedHere;
    std::vector<Instr> Kept;
    Kept.reserve(Instrs.size() - RemovedHere);
    for (size_t Idx = 0; Idx < Instrs.size(); ++Idx)
      if (!Remove[Idx])
        Kept.push_back(std::move(Instrs[Idx]));
    Instrs = std::move(Kept);
    G.touchBlock(B);
  }
  return NumEliminated;
}

unsigned am::runRedundantAssignmentElimination(FlowGraph &G) {
  AmContext Ctx;
  return runRedundantAssignmentElimination(G, Ctx);
}
