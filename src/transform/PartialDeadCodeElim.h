//===- transform/PartialDeadCodeElim.h - PDE extension ---------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partial dead code elimination — the dual of the paper's assignment
/// hoisting, after Knoop/Rüthing/Steffen'94 (the paper's ref [17], whose
/// delayability analysis Table 1 explicitly mirrors).  Assignments are
/// *sunk* as far as possible with the control flow to their latest safe
/// program points; a sunk assignment whose left-hand side is dead at its
/// latest point simply disappears.  Sinking into branches eliminates
/// assignments that are dead along some paths only ("partially dead").
///
/// The final flush phase of the uniform algorithm is exactly this
/// transformation restricted to temporary initializations; this extension
/// generalizes it to every assignment pattern.
///
/// The pass iterates sinking rounds to a fixpoint on one SinkingContext,
/// the way the AM phase shares an AmContext across its rae/aht rounds:
/// one stably numbered pattern table, persistent delayability and
/// liveness solvers that restart from the previous solution over the
/// dirty closure only, and each block's last decision.  A round
/// re-decides only the blocks whose decision inputs changed (see
/// SinkingContext::round); every other block keeps its decision, re-sorted
/// into the current first-occurrence rank order, which is the order the
/// output depends on.
///
/// Note: eliminating dead assignments may reduce the potential of runtime
/// errors (Section 3's caveat about dead-code elimination) — a trapping
/// right-hand side of a dead assignment no longer traps.  This is why PDE
/// is an extension rather than part of the paper's semantics-preserving
/// universe.
///
//===----------------------------------------------------------------------===//

#ifndef AM_TRANSFORM_PARTIALDEADCODEELIM_H
#define AM_TRANSFORM_PARTIALDEADCODEELIM_H

#include "analysis/Liveness.h"
#include "transform/AssignmentMotion.h"

#include <cstdint>
#include <vector>

namespace am {

/// Statistics of a PDE run.
struct PdeStats {
  /// Sinking rounds until stabilization (incl. the final no-change one).
  unsigned Rounds = 0;
  /// Net assignments removed (occurrences before minus after).
  int Removed = 0;
};

/// State shared across the sinking rounds of one PDE run.  Sinking only
/// re-materializes patterns that already occur, so the pattern universe
/// is fixed after the first round: the table keeps every index, the
/// delayability problem's generation never advances, and both solvers
/// restart incrementally from their previous solutions.  A context is
/// bound to the one live graph its rounds mutate.
class SinkingContext {
public:
  /// One sinking round over \p G (critical edges must be split): deletes
  /// every assignment occurrence and re-materializes each pattern at its
  /// latest safe points, skipping points where the left-hand side is
  /// dead.  Returns true if the program changed.
  ///
  /// A block's decision is a function of its instructions, its
  /// delayability entry and exit, its successors' delayability entries
  /// and its live-out set.  A round re-decides a block only if the
  /// previous round rebuilt it or one of those facts changed (the exit
  /// of a block the round did not rebuild changes only with its entry);
  /// a kept decision is re-sorted into the current rank order and
  /// rebuilt only if that order moved.
  bool round(FlowGraph &G);

  /// The last round's pattern table and facts, for tests.  The facts
  /// describe the graph the round decided on and stay valid until the
  /// next round.
  const AssignPatternTable &patterns() const { return Table.patterns(); }
  const DataflowResult &delayability() const { return Delay; }
  const DataflowResult &liveness() const { return Live.result(); }

private:
  /// A block's last decision: its guarded latest points as inserts, the
  /// X-LATEST ones at the block's size, co-located patterns in rank
  /// order.  The removals need no storage: every occurrence is deleted,
  /// and a kept decision belongs to a block the previous round left
  /// unchanged, whose occurrences the table records.
  using BlockDecision = std::vector<BlockRebuilder::Insert>;

  PatternContext Table;
  BlockingProblem DelayProblem{Table.patterns(), Direction::Forward};
  DataflowSolver DelaySolver;
  DataflowSolver LiveSolver;
  // The results read their solvers' storage; declared after the solvers
  // so they are released first and never copied out.
  DataflowResult Delay;
  LivenessAnalysis Live;

  std::vector<BlockDecision> Decisions;
  /// Blocks the last round rebuilt.
  std::vector<bool> Touched;
  /// The facts each decision was made against: delayability entry and
  /// live-out, one row of words per block.
  std::vector<uint64_t> PrevDelayIn, PrevLiveOut;
  // Per-round scratch.
  std::vector<bool> InChanged, Rebuild;
  BlockRebuilder Rebuilder;
};

/// Iterates sinking rounds on one SinkingContext to a fixpoint, capturing
/// second-order effects (a sunk assignment may unblock further sinking).
/// \p MaxRounds of 0 means until stabilization.
PdeStats runPartialDeadCodeElim(FlowGraph &G, unsigned MaxRounds = 0);

} // namespace am

#endif // AM_TRANSFORM_PARTIALDEADCODEELIM_H
