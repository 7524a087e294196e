//===- tests/stats_disabled_helper.cpp - Compiled-out stats TU -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// This translation unit is compiled with -DAM_DISABLE_STATS (see
// tests/CMakeLists.txt): every AM_STAT_*, AM_SPAN and AM_REMARK_* macro
// below must compile away, so none of the "test.compiled_out_*" instruments may
// ever appear in the registry and no remark instrumentation can run.
// stats_test.cpp asserts exactly that.
//
//===----------------------------------------------------------------------===//

#ifndef AM_DISABLE_STATS
#error "this file must be compiled with -DAM_DISABLE_STATS"
#endif

#include "support/Remarks.h"
#include "support/Stats.h"
#include "support/Telemetry.h"

namespace am::test {

void bumpCompiledOutStats() {
  AM_STAT_COUNTER(Ctr, "test.compiled_out_counter");
  AM_STAT_INC(Ctr);
  AM_STAT_ADD(Ctr, 41);
  AM_STAT_GAUGE(Gauge, "test.compiled_out_gauge");
  AM_STAT_SET(Gauge, 7);
  AM_SPAN(Span, "test.compiled_out_timer");
  Span.arg("ignored", 1);
}

bool compiledOutRemarksEnabled() {
  AM_REMARK_PASS_SCOPE("test.compiled_out_pass");
  AM_REMARK_SET_ROUND(42);
  // AM_REMARKS_ENABLED() is a compile-time `false` here: the body of an
  // `if (AM_REMARKS_ENABLED())` instrumentation site is dead code, so the
  // whole function must return false no matter what the sink says.
  if (AM_REMARKS_ENABLED())
    return true;
  return false;
}

} // namespace am::test
