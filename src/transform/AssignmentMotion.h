//===- transform/AssignmentMotion.h - AM phase fixpoint driver -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The assignment motion phase (Section 4.3): exhaustive interleaving of
/// redundant assignment elimination (rae) and assignment hoisting (aht)
/// until the program stabilizes.  This captures all second-order effects:
/// hoisting-elimination, hoisting-hoisting, elimination-hoisting and
/// elimination-elimination.
///
//===----------------------------------------------------------------------===//

#ifndef AM_TRANSFORM_ASSIGNMENTMOTION_H
#define AM_TRANSFORM_ASSIGNMENTMOTION_H

#include "analysis/PaperAnalyses.h"
#include "dfa/Dataflow.h"
#include "ir/FlowGraph.h"
#include "ir/Patterns.h"

namespace am {

/// State shared across the rae/aht rounds of one AM fixpoint so each
/// round pays only for what the previous round changed:
///
///  * one AssignPatternTable, rebuilt (arena-reusing) only when the graph
///    tick moved.  Its numbering is stable for the context's binding: rae
///    only deletes occurrences and aht only moves copies of existing
///    ones, so the universe AP is fixed for the whole fixpoint and every
///    pattern keeps its bit.  The generation number advances only when
///    the universe grows, so unchanged instructions keep their composed
///    transfers and every tick-stamped solver cache stays valid;
///  * one DataflowSolver per analysis (redundancy, hoistability), whose
///    transfer caches and previous solutions persist across rounds;
///  * the hoistability analysis' block-local predicates, read from the
///    hoistability solver's transfers.
///
/// Where index order was observable — aht's insertion order and the
/// recorder's fact tables — consumers use the table's first-occurrence
/// rank, so the output is what a fresh numbering would give.
///
/// A context lives for one pass: it is bound to the one live graph the
/// phase mutates and is never reused for a different graph.  The plain
/// entry points construct a throwaway context, so one-shot callers are
/// unaffected.
class AmContext {
public:
  /// Rebuilds the pattern table if the graph changed since the last
  /// refresh; advances the pattern generation only if the rebuild grew
  /// the universe.
  void refreshPatterns(const FlowGraph &G) {
    if (PatsValid && !G.instrsChangedSince(PatsTick))
      return;
    if (Pats.build(G))
      ++PatsGen;
    PatsTick = G.modTick();
    PatsValid = true;
  }

  const AssignPatternTable &patterns() const { return Pats; }
  uint64_t patternGeneration() const { return PatsGen; }
  DataflowSolver &redundancySolver() { return RedundancySolver; }
  DataflowSolver &hoistSolver() { return HoistSolver; }
  HoistLocalPredicates &hoistLocals() { return HoistLocals; }

private:
  AssignPatternTable Pats;
  DataflowSolver RedundancySolver;
  DataflowSolver HoistSolver;
  HoistLocalPredicates HoistLocals;
  Tick PatsTick = 0;
  bool PatsValid = false;
  uint64_t PatsGen = 0;
};

/// Statistics from one run of the AM phase, used by the complexity
/// experiments (Section 4.5 claims the number of iterations is at most
/// quadratic in the program size but linear for realistic programs).
struct AmPhaseStats {
  /// Number of rae+aht rounds until stabilization (including the final
  /// no-change round).
  unsigned Iterations = 0;
  /// Total assignments removed by rae across all rounds.
  unsigned Eliminated = 0;
  /// Number of rounds in which aht changed the program.
  unsigned HoistRounds = 0;
};

/// Runs rae and aht to a fixpoint on \p G (critical edges must be split).
/// \p MaxIterations of 0 means unbounded (the phase always terminates).
AmPhaseStats runAssignmentMotionPhase(FlowGraph &G,
                                      unsigned MaxIterations = 0);

/// As above, with caller-provided shared state (pattern table, solvers)
/// that persists across the rounds — the incremental fast path.
AmPhaseStats runAssignmentMotionPhase(FlowGraph &G, AmContext &Ctx,
                                      unsigned MaxIterations = 0);

} // namespace am

#endif // AM_TRANSFORM_ASSIGNMENTMOTION_H
