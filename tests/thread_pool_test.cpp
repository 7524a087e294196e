//===- tests/thread_pool_test.cpp - Pool + determinism tests ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The worker pool itself (futures, exception propagation, the N=1 inline
// collapse, partitioning) and the determinism contract of the parallel
// solves: for every thread count the optimized program is byte-identical,
// the machine-independent counters agree, and every group width of the
// sliced engine matches the dense oracle.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/PaperAnalyses.h"
#include "dfa/Dataflow.h"
#include "gen/RandomProgram.h"
#include "ir/Printer.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "transform/UniformEmAm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace am;

namespace {

/// Restores the process thread count on scope exit so a failing test
/// cannot poison its neighbors.
struct PolicyGuard {
  ~PolicyGuard() { threads::setGlobalThreadCount(0); }
};

//===----------------------------------------------------------------------===//
// parseThreadSpec / global thread count
//===----------------------------------------------------------------------===//

TEST(ThreadSpec, ParsesDecimalsAndMax) {
  EXPECT_EQ(threads::parseThreadSpec("1"), 1u);
  EXPECT_EQ(threads::parseThreadSpec("8"), 8u);
  EXPECT_EQ(threads::parseThreadSpec("4096"), 4096u);
  EXPECT_EQ(threads::parseThreadSpec("max"), threads::hardwareConcurrency());
  EXPECT_GE(threads::hardwareConcurrency(), 1u);
}

TEST(ThreadSpec, RejectsBadInput) {
  for (const char *Bad : {"", "0", "abc", "4097", "-1", "2x", "max4"}) {
    std::string Err;
    EXPECT_EQ(threads::parseThreadSpec(Bad, &Err), 0u) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

TEST(ThreadSpec, GlobalCountOverrideAndRestore) {
  PolicyGuard Guard;
  unsigned Default = threads::globalThreadCount();
  threads::setGlobalThreadCount(7);
  EXPECT_EQ(threads::globalThreadCount(), 7u);
  threads::setGlobalThreadCount(0); // back to env/default resolution
  EXPECT_EQ(threads::globalThreadCount(), Default);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, SingleWorkerRunsInline) {
  threads::ThreadPool Pool(1);
  EXPECT_EQ(Pool.workers(), 1u);
  std::thread::id Caller = std::this_thread::get_id();
  std::thread::id Ran;
  Pool.submit([&] { Ran = std::this_thread::get_id(); }).get();
  EXPECT_EQ(Ran, Caller);
}

TEST(ThreadPool, SubmitCompletesOnWorkers) {
  threads::ThreadPool Pool(4);
  std::atomic<int> Done{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 32; ++I)
    Futures.push_back(Pool.submit([&Done] { ++Done; }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(Done.load(), 32);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  for (unsigned Workers : {1u, 4u}) {
    threads::ThreadPool Pool(Workers);
    std::future<void> F =
        Pool.submit([] { throw std::runtime_error("task boom"); });
    EXPECT_THROW(F.get(), std::runtime_error) << Workers << " workers";
  }
}

// Two workers throwing *simultaneously* must each deliver their own
// exception through their own future, with no deadlock, no lost worker,
// and every job queued behind them still running.  (A pool that loses a
// worker to an unhandled exception would hang ambatch the first time two
// jobs failed together.)
TEST(ThreadPool, ConcurrentFailuresBothPropagateAndPoolSurvives) {
  threads::ThreadPool Pool(2);
  std::atomic<int> AtBarrier{0};
  auto Thrower = [&AtBarrier](const char *What) {
    // Rendezvous: neither worker throws until both are inside a task, so
    // the two failures are genuinely concurrent.
    ++AtBarrier;
    while (AtBarrier.load() < 2)
      std::this_thread::yield();
    throw std::runtime_error(What);
  };
  std::future<void> A = Pool.submit([&] { Thrower("first boom"); });
  std::future<void> B = Pool.submit([&] { Thrower("second boom"); });

  // Jobs queued behind the simultaneous failures must still run.
  std::atomic<int> Survivors{0};
  std::vector<std::future<void>> After;
  for (int I = 0; I < 8; ++I)
    After.push_back(Pool.submit([&Survivors] { ++Survivors; }));

  // Each future carries its *own* exception, not the neighbor's.
  try {
    A.get();
    FAIL() << "first task's exception was lost";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "first boom");
  }
  try {
    B.get();
    FAIL() << "second task's exception was lost";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "second boom");
  }
  for (auto &F : After)
    F.get(); // would deadlock here if a worker died
  EXPECT_EQ(Survivors.load(), 8);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned Workers : {1u, 3u, 8u}) {
    threads::ThreadPool Pool(Workers);
    for (size_t N : {size_t(0), size_t(1), size_t(5), size_t(100)}) {
      std::vector<std::atomic<int>> Hits(N);
      for (auto &H : Hits)
        H = 0;
      Pool.parallelFor(N, [&Hits](size_t I) { ++Hits[I]; });
      for (size_t I = 0; I < N; ++I)
        EXPECT_EQ(Hits[I].load(), 1)
            << "index " << I << " of " << N << ", " << Workers << " workers";
    }
  }
}

TEST(ThreadPool, ParallelRangesPartitionIsContiguousAndComplete) {
  threads::ThreadPool Pool(4);
  std::mutex M;
  std::vector<std::pair<size_t, size_t>> Ranges;
  Pool.parallelRanges(10, [&](size_t Begin, size_t End) {
    std::lock_guard<std::mutex> Lock(M);
    Ranges.push_back({Begin, End});
  });
  ASSERT_EQ(Ranges.size(), 4u); // min(workers, N) partitions
  std::sort(Ranges.begin(), Ranges.end());
  size_t Next = 0;
  for (auto &R : Ranges) {
    EXPECT_EQ(R.first, Next);
    EXPECT_LT(R.first, R.second);
    Next = R.second;
  }
  EXPECT_EQ(Next, 10u);
}

TEST(ThreadPool, ParallelForRethrowsAfterJoin) {
  threads::ThreadPool Pool(4);
  std::atomic<int> Ran{0};
  EXPECT_THROW(Pool.parallelFor(16,
                                [&Ran](size_t I) {
                                  ++Ran;
                                  if (I == 3)
                                    throw std::runtime_error("body boom");
                                }),
               std::runtime_error);
  // All ranges joined before the rethrow: every index ran.
  EXPECT_EQ(Ran.load(), 16);
}

//===----------------------------------------------------------------------===//
// Differential determinism sweep
//===----------------------------------------------------------------------===//

/// The counters that must be invariant across thread counts (all of the
/// bench gate's counters, including the dfa.* work counters: the thread
/// count never changes the group width or how much work it reports).
const char *AllGated[] = {
    "dfa.solves",          "dfa.blocks_processed", "dfa.words_touched",
    "dfa.transfers_recomputed",
    "am.rounds",           "am.hoist_rounds",      "am.eliminated",
    "flush.inits_deleted", "flush.inits_sunk",
};

template <size_t N>
std::map<std::string, uint64_t> counterSnapshot(const char *(&Names)[N]) {
  std::map<std::string, uint64_t> Out;
  for (const char *Name : Names) {
    const stats::Counter *C = stats::Registry::get().findCounter(Name);
    Out[Name] = C ? C->get() : 0;
  }
  return Out;
}

std::string runUniform(const FlowGraph &In) {
  FlowGraph Work = In;
  return printGraph(runUniformEmAm(Work));
}

TEST(ThreadsDifferential, CorpusIdenticalAcrossThreadCounts) {
  PolicyGuard Guard;
  for (uint64_t Seed = 0; Seed < 120; ++Seed) {
    FlowGraph In = generateStructuredProgram(Seed);
    std::string Reference;
    std::map<std::string, uint64_t> ReferenceCounters;
    for (unsigned Threads : {1u, 2u, 8u}) {
      threads::setGlobalThreadCount(Threads);
      stats::Registry::get().resetAll();
      std::string Out = runUniform(In);
      std::map<std::string, uint64_t> Counters = counterSnapshot(AllGated);
      if (Threads == 1) {
        Reference = Out;
        ReferenceCounters = Counters;
      } else {
        EXPECT_EQ(Out, Reference) << "seed " << Seed << ", " << Threads
                                  << " threads: output diverged";
        EXPECT_EQ(Counters, ReferenceCounters)
            << "seed " << Seed << ", " << Threads << " threads";
      }
    }
  }
}

TEST(ThreadsDifferential, WideUniverseIdenticalAcrossThreads) {
  PolicyGuard Guard;
  // A pattern universe wider than one machine word, so the engine runs
  // several slices per group; 20 seeds keep the sweep fast.
  GenOptions Opts;
  Opts.TargetStmts = 200;
  Opts.NumVars = 12;
  Opts.PatternPoolSize = 96;
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    FlowGraph In = generateStructuredProgram(Seed, Opts);
    std::string Reference;
    std::map<std::string, uint64_t> ReferenceCounters;
    for (unsigned Threads : {1u, 2u, 8u}) {
      threads::setGlobalThreadCount(Threads);
      stats::Registry::get().resetAll();
      std::string Out = runUniform(In);
      std::map<std::string, uint64_t> Counters = counterSnapshot(AllGated);
      if (Threads == 1) {
        Reference = Out;
        ReferenceCounters = Counters;
      } else {
        EXPECT_EQ(Out, Reference) << "seed " << Seed << ", " << Threads
                                  << " threads: output diverged";
        EXPECT_EQ(Counters, ReferenceCounters)
            << "seed " << Seed << ", " << Threads << " threads";
      }
    }
  }
}

TEST(ThreadsDifferential, GroupWidthEdgesMatchDenseOracle) {
  PolicyGuard Guard;
  // One slice, a partial and a full single word, one bit past it, five
  // slices in an eight-slice group, a full 16-slice group and one bit
  // into a second group.
  for (size_t Bits : {1u, 63u, 64u, 65u, 300u, 1024u, 1025u}) {
    for (unsigned Threads : {1u, 8u}) {
      threads::setGlobalThreadCount(Threads);
      for (uint64_t Seed = 0; Seed < 3; ++Seed) {
        for (Direction Dir : {Direction::Forward, Direction::Backward}) {
          for (Meet M : {Meet::All, Meet::Any}) {
            std::string Ctx = std::to_string(Bits) + " bits, " +
                              std::to_string(Threads) + " threads, seed " +
                              std::to_string(Seed) +
                              (Dir == Direction::Forward ? ", fwd" : ", bwd") +
                              (M == Meet::All ? ", all" : ", any");
            FlowGraph G = generateIrreducibleCfg(Seed);
            test::WidthProbe P(Bits, Dir, M);
            DataflowSolver Solver;
            test::expectMatchesDense(G, Solver.solve(G, P),
                                     test::denseSolve(G, P), Ctx + ", full");
            // A stamped local edit: the block's effects shift by one
            // instruction, and the next solve restarts incrementally.
            BlockId Target = G.numBlocks() / 2;
            G.block(Target).Instrs.insert(G.block(Target).Instrs.begin(),
                                          Instr::skip());
            G.touchBlock(Target);
            uint64_t Inc0 = stats::Registry::get().counterValue(
                "dfa.solves.incremental");
            DataflowResult R = Solver.solve(G, P);
            EXPECT_EQ(stats::Registry::get().counterValue(
                          "dfa.solves.incremental"),
                      Inc0 + 1)
                << Ctx;
            test::expectMatchesDense(G, R, test::denseSolve(G, P),
                                     Ctx + ", incremental");
            if (HasFatalFailure())
              return;
          }
        }
      }
    }
  }
}

/// chunkLive(W) must say exactly whether run W of the row holds a set
/// bit.  Checked before anything materializes the result, which would
/// make every run read live.  Returns the number of runs read as dead.
size_t expectLiveRunsExact(const FlowGraph &G, const DataflowResult &R,
                           const std::string &Ctx) {
  size_t Dead = 0;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (bool Entry : {true, false}) {
      WordRow Row = Entry ? R.entryRow(B) : R.exitRow(B);
      size_t Words = (Row.size() + 63) / 64;
      for (size_t C = 0; C < Words; C += WordRow::ChunkWords) {
        bool Nonzero = false;
        for (size_t W = C; W < std::min(C + WordRow::ChunkWords, Words); ++W)
          Nonzero |= Row.word(W) != 0;
        Dead += !Nonzero;
        EXPECT_EQ(Row.chunkLive(C), Nonzero)
            << Ctx << ": " << (Entry ? "entry" : "exit") << " of b" << B
            << ", run " << C / WordRow::ChunkWords;
        if (::testing::Test::HasFailure())
          return Dead;
      }
    }
  }
  return Dead;
}

/// Full, incremental (after a stamped edit, then \p AfterEdit) and
/// cached solves of \p P on one solver; returns the dead runs seen.
size_t expectLiveRunsOnEveryPath(FlowGraph &G, const DataflowProblem &P,
                                 const std::string &Ctx,
                                 const std::function<void()> &AfterEdit = {}) {
  DataflowSolver Solver;
  size_t Dead = expectLiveRunsExact(G, Solver.solve(G, P), Ctx + ", full");
  BlockId Target = G.numBlocks() / 2;
  G.block(Target).Instrs.insert(G.block(Target).Instrs.begin(),
                                Instr::skip());
  G.touchBlock(Target);
  if (AfterEdit)
    AfterEdit();
  Dead += expectLiveRunsExact(G, Solver.solve(G, P), Ctx + ", incremental");
  Dead += expectLiveRunsExact(G, Solver.solve(G, P), Ctx + ", cached");
  return Dead;
}

TEST(LiveRuns, FlagsMatchNonzeroRunsOnEveryPath) {
  PolicyGuard Guard;
  // The flags of different groups are written by different workers.
  threads::setGlobalThreadCount(4);
  size_t Dead = 0;
  // 1, 2, 4, 8 and 16 slices, a partial second group, and four groups.
  for (size_t Bits : {40u, 128u, 256u, 512u, 1024u, 1500u, 4096u}) {
    for (Direction Dir : {Direction::Forward, Direction::Backward}) {
      for (Meet M : {Meet::All, Meet::Any}) {
        FlowGraph G = generateStructuredProgram(Bits);
        test::WidthProbe P(Bits, Dir, M);
        Dead += expectLiveRunsOnEveryPath(
            G, P,
            std::to_string(Bits) + " bits" +
                (Dir == Direction::Forward ? ", fwd" : ", bwd") +
                (M == Meet::All ? ", all" : ", any"));
        if (HasFailure())
          return;
      }
    }
  }
  // Hoisting and sinking over a universe of several groups, whose facts
  // are sparse: most runs are dead.
  GenOptions Opts;
  Opts.TargetStmts = 6000;
  Opts.NumVars = 24;
  Opts.PatternPoolSize = 320;
  FlowGraph G = generateStructuredProgram(61, Opts);
  G.splitCriticalEdges();
  AssignPatternTable Pats;
  Pats.build(G);
  ASSERT_GT(Pats.size(), 1024u);
  for (Direction Dir : {Direction::Forward, Direction::Backward}) {
    BlockingProblem P(Pats, Dir);
    Dead += expectLiveRunsOnEveryPath(
        G, P, Dir == Direction::Forward ? "sinking" : "hoisting",
        [&] { Pats.build(G); }); // same universe: the edit adds a skip
  }
  EXPECT_GT(Dead, 0u) << "no dead run was ever checked";
}

} // namespace
