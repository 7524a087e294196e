//===- analysis/Liveness.h - Variable liveness ------------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic backward any-path liveness over variables.  Substrate for the
/// partial-dead-code-elimination extension (the paper's ref [17]) and for
/// statistics.  A variable is live at a point if some path from the point
/// reads it before writing it.
///
//===----------------------------------------------------------------------===//

#ifndef AM_ANALYSIS_LIVENESS_H
#define AM_ANALYSIS_LIVENESS_H

#include "dfa/Dataflow.h"

#include <memory>

namespace am {

/// Liveness facts for one graph snapshot, one bit per variable.
class LivenessAnalysis {
public:
  /// Runs liveness on \p G.  By default every variable is considered dead
  /// at the end node's exit; writes are observable only through `out`.
  static LivenessAnalysis run(const FlowGraph &G);

  /// As above, against a caller-owned reusable solver: the result reads
  /// the solver's storage and the next solve restarts from it.
  static LivenessAnalysis run(const FlowGraph &G, DataflowSolver &Solver);

  const BitVector &liveIn(BlockId B) const { return Result.entry(B); }
  const BitVector &liveOut(BlockId B) const { return Result.exit(B); }

  /// Per-instruction liveness facts of \p B.
  DataflowResult::InstrFacts facts(BlockId B) const {
    return Result.instrFacts(B);
  }

  /// The block-level solution, for BlockWalker scans.
  const DataflowResult &result() const { return Result; }

private:
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
};

} // namespace am

#endif // AM_ANALYSIS_LIVENESS_H
