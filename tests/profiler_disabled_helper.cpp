//===- tests/profiler_disabled_helper.cpp - Compiled-out prof TU -*- C++ -*-=//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// This translation unit is compiled with -DAM_DISABLE_STATS (see
// tests/CMakeLists.txt): AM_SPAN must compile away, so the spans below
// can never create phase-tree nodes — even when the calling
// test has *enabled* the session's profiler.  profiler_test.cpp asserts
// exactly that.
//
//===----------------------------------------------------------------------===//

#ifndef AM_DISABLE_STATS
#error "this file must be compiled with -DAM_DISABLE_STATS"
#endif

#include "support/Profiler.h"
#include "support/Telemetry.h"

namespace am::test {

/// Runs nested compiled-out spans; returns how many phase-tree
/// nodes the session profiler gained (must be 0).
size_t profileCompiledOutScopes() {
  prof::Profiler &P = prof::Profiler::get();
  size_t Before = P.numNodes();
  {
    AM_SPAN(TestCompiledOutPhase, "test.compiled_out_phase");
    {
      AM_SPAN(TestCompiledOutInner, "test.compiled_out_inner");
    }
  }
  return P.numNodes() - Before;
}

} // namespace am::test
