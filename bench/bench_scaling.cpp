//===- bench/bench_scaling.cpp - Complexity experiments --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Experiments C1/C2 (DESIGN.md), Section 4.5 of the paper: the worst-case
// complexity of the global algorithm is "essentially quadratic" for
// structured programs, and the number of rae/aht iterations of the AM
// phase is linear "with a small constant" for realistic programs.
//
// The study prints iteration counts against program size; the benchmarks
// time the full pipeline across sizes, for structured and unstructured
// control flow.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/RandomProgram.h"
#include "transform/Initialization.h"
#include "transform/UniformEmAm.h"

using namespace am;
using namespace am::bench;

namespace {

GenOptions structuredOpts(unsigned Stmts) {
  GenOptions Opts;
  Opts.TargetStmts = Stmts;
  Opts.NumVars = 8;
  Opts.PatternPoolSize = 12;
  return Opts;
}

void study() {
  std::printf("# Section 4.5: complexity on realistic programs\n\n");
  std::printf("%10s %8s %8s %12s %12s %12s\n", "stmts", "blocks", "instrs",
              "am-iters", "eliminated", "hoist-rounds");
  for (unsigned Stmts : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    uint64_t Blocks = 0, Instrs = 0, Iters = 0, Elim = 0, Hoists = 0;
    const unsigned NumSeeds = 5;
    for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
      FlowGraph G = generateStructuredProgram(Seed, structuredOpts(Stmts));
      Blocks += G.numBlocks();
      Instrs += G.numInstrs();
      UniformStats Stats;
      runUniformEmAm(G, UniformOptions(), &Stats);
      Iters += Stats.AmPhase.Iterations;
      Elim += Stats.AmPhase.Eliminated;
      Hoists += Stats.AmPhase.HoistRounds;
    }
    std::printf("%10u %8llu %8llu %12.1f %12.1f %12.1f\n", Stmts,
                (unsigned long long)(Blocks / NumSeeds),
                (unsigned long long)(Instrs / NumSeeds),
                double(Iters) / NumSeeds, double(Elim) / NumSeeds,
                double(Hoists) / NumSeeds);
  }
  std::printf("\nclaim (Section 4.5): the number of AM iterations stays "
              "small and essentially flat\nwith program size for realistic "
              "structured programs (the quadratic bound is a\nworst case).  "
              "The table above regenerates that observation.\n");
}

void BM_UniformStructured(benchmark::State &State) {
  FlowGraph G = generateStructuredProgram(
      7, structuredOpts(static_cast<unsigned>(State.range(0))));
  uint64_t Iters = 0;
  for (auto _ : State) {
    UniformStats Stats;
    benchmark::DoNotOptimize(runUniformEmAm(G, UniformOptions(), &Stats));
    Iters = Stats.AmPhase.Iterations;
  }
  State.counters["blocks"] = static_cast<double>(G.numBlocks());
  State.counters["instrs"] = static_cast<double>(G.numInstrs());
  State.counters["am_iters"] = static_cast<double>(Iters);
  State.SetComplexityN(static_cast<int64_t>(G.numInstrs()));
}
BENCHMARK(BM_UniformStructured)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Complexity(benchmark::oNSquared)
    ->Unit(benchmark::kMillisecond);

void BM_UniformUnstructured(benchmark::State &State) {
  GenOptions Opts;
  Opts.NumBlocks = static_cast<unsigned>(State.range(0));
  Opts.ExtraEdges = Opts.NumBlocks / 2;
  FlowGraph G = generateIrreducibleCfg(11, Opts);
  for (auto _ : State)
    benchmark::DoNotOptimize(runUniformEmAm(G));
  State.counters["blocks"] = static_cast<double>(G.numBlocks());
}
BENCHMARK(BM_UniformUnstructured)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_AmPhaseOnly(benchmark::State &State) {
  FlowGraph G = generateStructuredProgram(
      7, structuredOpts(static_cast<unsigned>(State.range(0))));
  G.splitCriticalEdges();
  for (auto _ : State) {
    FlowGraph Work = G;
    benchmark::DoNotOptimize(runAssignmentMotionPhase(Work));
  }
}
BENCHMARK(BM_AmPhaseOnly)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

} // namespace

AM_BENCH_MAIN(study)
