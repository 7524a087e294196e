//===- transform/LazyCodeMotion.h - EM baseline ----------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression-motion baseline: lazy code motion (the paper's refs
/// [15, 16], in the Drechsler/Stadel edge-placement formulation [10]).
/// Inserts `h_e := e` on the computed insertion edges and rewrites every
/// original computation of e to go through h_e — exactly the classic EM
/// shape the paper contrasts with (Figures 6(a), 19): without the uniform
/// algorithm's final flush, single-use initializations like `h1 := a+b;
/// t := h1` remain in the program.
///
/// Computationally optimal placement; no isolation analysis (the flush
/// phase of the uniform algorithm is the paper's replacement for it).
///
/// Busy code motion, the *earliest*-placement variant, shares the
/// analyses and the rewrite.  It is computationally equivalent to LCM
/// (same number of expression evaluations on every path) but moves
/// initializations as early as safely possible, which maximizes temporary
/// lifetimes: the lifetime metrics of analysis/Lifetime.h quantify what
/// laziness buys.
///
//===----------------------------------------------------------------------===//

#ifndef AM_TRANSFORM_LAZYCODEMOTION_H
#define AM_TRANSFORM_LAZYCODEMOTION_H

#include "ir/FlowGraph.h"

namespace am {

/// Statistics of one LCM run.
struct LcmStats {
  unsigned InsertedOnEdges = 0;
  unsigned RewrittenComputations = 0;
};

/// Runs lazy code motion on \p G in place (critical edges are split
/// internally; the result is simplified).
void lazyCodeMotion(FlowGraph &G, LcmStats *Stats = nullptr);

/// Runs lazy code motion on a copy of \p G and returns the transformed
/// program.
FlowGraph runLazyCodeMotion(const FlowGraph &G, LcmStats *Stats = nullptr);

/// Runs busy code motion on a copy of \p G (critical edges are split
/// internally) and returns the transformed program.
FlowGraph runBusyCodeMotion(const FlowGraph &G);

} // namespace am

#endif // AM_TRANSFORM_LAZYCODEMOTION_H
