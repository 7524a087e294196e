//===- transform/FinalFlush.h - Phase 3: final flush -----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The final flush phase (Section 4.4, Table 3): a lazy-code-motion-style
/// sinking of the temporary initializations `h_e := e` to their latest
/// safe points.  Initializations that serve no partial-redundancy
/// elimination disappear: a single immediately-following use is
/// *reconstructed* to compute e directly, and initializations whose value
/// is never used are dropped.
///
//===----------------------------------------------------------------------===//

#ifndef AM_TRANSFORM_FINALFLUSH_H
#define AM_TRANSFORM_FINALFLUSH_H

#include "ir/FlowGraph.h"

namespace am {

class AmContext;

/// Runs the final flush in place (critical edges must be split).
/// Returns true if the program changed.
bool runFinalFlush(FlowGraph &G);

/// As above, solving Table 3 on \p Ctx's two solvers, whose arenas still
/// hold the AM phase's planes (see FlushAnalysis::run).
bool runFinalFlush(FlowGraph &G, AmContext &Ctx);

} // namespace am

#endif // AM_TRANSFORM_FINALFLUSH_H
