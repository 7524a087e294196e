//===- bench/bench_lifetime.cpp - Temporary-lifetime study -----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Experiment X2 (DESIGN.md), the practical content of Theorem 5.4: the
// final flush keeps temporaries short-lived.  Busy code motion (earliest
// placement) pays the longest lifetimes, lazy code motion shortens them,
// and the uniform algorithm's flush removes most temporaries altogether.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Lifetime.h"
#include "gen/RandomProgram.h"
#include "transform/LazyCodeMotion.h"
#include "transform/UniformEmAm.h"

using namespace am;
using namespace am::bench;

namespace {

struct LifetimeRow {
  const char *Variant;
  LifetimeStats S;
  uint64_t ExprEvals;
};

void study() {
  std::printf("# Theorem 5.4 in practice: temporary lifetimes "
              "(busy vs lazy vs flush)\n");
  std::printf("# 16 random structured programs; lifetimes are static "
              "live-temp program points\n\n");

  LifetimeStats Bcm, Lcm, Uniform, NoFlush;
  uint64_t EvalsBcm = 0, EvalsLcm = 0, EvalsUniform = 0;
  auto Accumulate = [](LifetimeStats &Into, const LifetimeStats &S) {
    Into.TempLifetimePoints += S.TempLifetimePoints;
    Into.TotalLifetimePoints += S.TotalLifetimePoints;
    Into.MaxLiveTemps = std::max(Into.MaxLiveTemps, S.MaxLiveTemps);
    Into.TempAssignments += S.TempAssignments;
  };

  GenOptions Opts;
  Opts.TargetStmts = 60;
  UniformOptions NoFlushOpts;
  NoFlushOpts.RunFinalFlush = false;
  for (uint64_t Seed = 0; Seed < 16; ++Seed) {
    FlowGraph G = generateStructuredProgram(Seed, Opts);
    FlowGraph GBcm = runBusyCodeMotion(G);
    FlowGraph GLcm = runLazyCodeMotion(G);
    FlowGraph GU = runUniformEmAm(G);
    FlowGraph GNf = runUniformEmAm(G, NoFlushOpts);
    Accumulate(Bcm, computeLifetimeStats(GBcm));
    Accumulate(Lcm, computeLifetimeStats(GLcm));
    Accumulate(Uniform, computeLifetimeStats(GU));
    Accumulate(NoFlush, computeLifetimeStats(GNf));
    std::unordered_map<std::string, int64_t> In = {{"v0", 3}, {"v1", -1}};
    for (uint64_t Run = 0; Run < 4; ++Run) {
      EvalsBcm += Interpreter::execute(GBcm, In, Run).Stats.ExprEvaluations;
      EvalsLcm += Interpreter::execute(GLcm, In, Run).Stats.ExprEvaluations;
      EvalsUniform +=
          Interpreter::execute(GU, In, Run).Stats.ExprEvaluations;
    }
  }

  std::printf("%-24s %16s %14s %14s\n", "variant", "temp-lifetime-pts",
              "max-live-temps", "temp-assigns");
  for (const LifetimeRow &R :
       {LifetimeRow{"BCM (earliest)", Bcm, EvalsBcm},
        LifetimeRow{"LCM (lazy)", Lcm, EvalsLcm},
        LifetimeRow{"uniform, no flush", NoFlush, 0},
        LifetimeRow{"uniform EM & AM", Uniform, EvalsUniform}})
    std::printf("%-24s %16llu %14u %14u\n", R.Variant,
                (unsigned long long)R.S.TempLifetimePoints, R.S.MaxLiveTemps,
                R.S.TempAssignments);

  printClaim("busy and lazy placement evaluate the same expressions",
             EvalsBcm == EvalsLcm);
  printClaim("lazy placement has shorter temporary lifetimes than busy",
             Lcm.TempLifetimePoints <= Bcm.TempLifetimePoints);
  printClaim("the uniform flush yields the shortest temporary lifetimes "
             "of all",
             Uniform.TempLifetimePoints <= Lcm.TempLifetimePoints &&
                 Uniform.TempLifetimePoints <= NoFlush.TempLifetimePoints);
  printClaim("uniform keeps expression evaluations at the EM optimum",
             EvalsUniform <= EvalsLcm);
}

void BM_Bcm(benchmark::State &State) {
  GenOptions Opts;
  Opts.TargetStmts = 120;
  FlowGraph G = generateStructuredProgram(9, Opts);
  for (auto _ : State)
    benchmark::DoNotOptimize(runBusyCodeMotion(G));
}
BENCHMARK(BM_Bcm)->Unit(benchmark::kMillisecond);

void BM_LifetimeMetric(benchmark::State &State) {
  GenOptions Opts;
  Opts.TargetStmts = 120;
  FlowGraph G = runLazyCodeMotion(generateStructuredProgram(9, Opts));
  for (auto _ : State)
    benchmark::DoNotOptimize(computeLifetimeStats(G));
}
BENCHMARK(BM_LifetimeMetric)->Unit(benchmark::kMillisecond);

} // namespace

AM_BENCH_MAIN(study)
