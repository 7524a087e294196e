//===- tests/counter_lock_test.cpp - Locked 20k counters -------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The uniform pipeline's decision counters on the 20k-statement seed-61
/// program (the first program of the benchmark's uniform-20k workload),
/// locked to the values the dense gen/kill implementation produced, and
/// the optimized program's bytes locked by their FNV-1a hash.  A change
/// to how the analyses are computed must leave every AM round,
/// elimination and flush decision — and every output byte — exactly
/// where it was.
///
//===----------------------------------------------------------------------===//

#include "gen/RandomProgram.h"
#include "ir/Printer.h"
#include "support/EventLog.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

using namespace am;

TEST(CounterLock, Uniform20kSeed61) {
  GenOptions Opts;
  Opts.TargetStmts = 20000;
  Opts.NumVars = 24;
  Opts.PatternPoolSize = 320;
  FlowGraph G = generateStructuredProgram(61, Opts);
  telemetry::Session Job;
  PipelineOptions P;
  P.Telemetry = &Job;
  const unsigned PrevThreads = threads::globalThreadCount();
  threads::setGlobalThreadCount(1);
  PipelineResult R = runPipeline(G, "uniform", P);
  threads::setGlobalThreadCount(PrevThreads);
  ASSERT_TRUE(R.ok()) << R.Error;
  const stats::Registry &S = Job.stats();
  EXPECT_EQ(S.counterValue("am.rounds"), 8u);
  EXPECT_EQ(S.counterValue("am.eliminated"), 1647u);
  EXPECT_EQ(S.counterValue("flush.inits_deleted"), 13688u);
  EXPECT_EQ(S.counterValue("flush.inits_sunk"), 657u);
  EXPECT_EQ(fleet::fnv1a64(printGraph(R.Graph)), 0x809ddfb0865cc7a1ull);
}
