//===- tests/counter_lock_test.cpp - Locked benchmark counters --*- C++ -*-===//
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
/// where it was.  The baselines-2k workload's first program is locked the
/// same way: its copy-propagation rewrites, PDE rounds and output hash.
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

/// The first program of the benchmark's baselines-2k workload (seed 61,
/// 2000 statements, 12 variables, pattern pool 40) through the EM+CP+PDE
/// baselines.  The copy-propagation rewrites, the PDE sinking rounds and
/// the output bytes are locked to the values the from-scratch sinking
/// rounds and the copy-scanning rewrite produced: reusing solvers and
/// decisions across rounds must not move any of them.
TEST(CounterLock, Baselines2kSeed61) {
  GenOptions Opts;
  Opts.TargetStmts = 2000;
  Opts.NumVars = 12;
  Opts.PatternPoolSize = 40;
  FlowGraph G = generateStructuredProgram(61, Opts);
  PipelineResult R = runPipeline(G, "lcm,cp,lcm,pde");
  ASSERT_TRUE(R.ok()) << R.Error;
  std::vector<std::string> Want = {"lcm: done", "cp: 420 uses rewritten",
                                   "lcm: done", "(split 32 critical edges)",
                                   "pde: 8 rounds, net 58 removed"};
  EXPECT_EQ(R.Log, Want);
  EXPECT_EQ(fleet::fnv1a64(printGraph(R.Graph)), 0xc68c827ebcae24d9ull);
}

/// The same program through busy code motion.  BCM shares LCM's insert
/// and rewrite step; its output bytes are locked to the value of the
/// standalone BCM rewrite and the round-robin HAVAIL fixpoint.
TEST(CounterLock, BcmBaselines2kSeed61) {
  GenOptions Opts;
  Opts.TargetStmts = 2000;
  Opts.NumVars = 12;
  Opts.PatternPoolSize = 40;
  FlowGraph G = generateStructuredProgram(61, Opts);
  PipelineResult R = runPipeline(G, "bcm");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(fleet::fnv1a64(printGraph(R.Graph)), 0xdf1da56096bab6f8ull);
}
