//===- transform/UniformEmAm.h - The paper's global algorithm --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global algorithm of Section 4: critical-edge splitting, the
/// initialization phase, the assignment-motion fixpoint and the final
/// flush.  The result is expression-optimal in the universe of EM/AM
/// interleavings (Theorem 5.2) and relatively assignment- and
/// temporary-optimal (Theorems 5.3/5.4).
///
/// Options toggle individual phases for the ablation experiments and the
/// baselines ("AM only" is the pipeline without initialization and flush).
///
//===----------------------------------------------------------------------===//

#ifndef AM_TRANSFORM_UNIFORMEMAM_H
#define AM_TRANSFORM_UNIFORMEMAM_H

#include "ir/FlowGraph.h"
#include "transform/AssignmentMotion.h"

namespace am {

/// Pipeline configuration.  Defaults run the full paper algorithm.
struct UniformOptions {
  /// Split critical edges first (Section 2.1).  Disabling this is only
  /// meaningful for the ablation study; the motion passes require split
  /// edges and will be skipped on graphs that still have critical edges.
  bool SplitCriticalEdges = true;
  /// Phase 1: decompose computations into temporary initializations.
  bool RunInitialization = true;
  /// Phase 3: flush unnecessary temporary initializations.
  bool RunFinalFlush = true;
  /// Cap on AM-phase iterations (0 = until stabilization).
  unsigned MaxAmIterations = 0;
  /// Drop skips and splice out empty synthetic blocks at the end.
  bool SimplifyResult = true;
};

/// Statistics of one pipeline run.
struct UniformStats {
  unsigned EdgesSplit = 0;
  unsigned Decompositions = 0;
  AmPhaseStats AmPhase;
  bool FlushChanged = false;
};

/// Runs the global algorithm on a copy of \p G and returns the optimized
/// program.  \p Stats, if non-null, receives phase statistics.
FlowGraph runUniformEmAm(const FlowGraph &G, const UniformOptions &Options = {},
                         UniformStats *Stats = nullptr);

/// Convenience: plain assignment motion (no initialization, no flush) —
/// the paper's AM-only comparison of Figure 6(b).
FlowGraph runAssignmentMotionOnly(const FlowGraph &G,
                                  UniformStats *Stats = nullptr);

} // namespace am

#endif // AM_TRANSFORM_UNIFORMEMAM_H
