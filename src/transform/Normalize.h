//===- transform/Normalize.h - Skip and self-assign cleanup ----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-place normalizations used between phases: `x := x` is identified
/// with `skip` (Section 2), and skips carry no information, so both are
/// removed.  Unlike simplify(), this never changes the block structure,
/// so analyses and block ids stay aligned.
///
//===----------------------------------------------------------------------===//

#ifndef AM_TRANSFORM_NORMALIZE_H
#define AM_TRANSFORM_NORMALIZE_H

#include "ir/FlowGraph.h"

namespace am {

/// Deletes all `skip` instructions and all `x := x` self-assignments.
/// Returns the number of instructions removed.
unsigned removeSkips(FlowGraph &G);

} // namespace am

#endif // AM_TRANSFORM_NORMALIZE_H
