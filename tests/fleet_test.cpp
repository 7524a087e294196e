//===- tests/fleet_test.cpp - Fleet telemetry layer tests ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The corpus observability substrate behind tools/ambatch: the shared
// log2 histogram geometry (stats:: helpers + fleet::Histogram), the
// determinism contract of the amagg-v1 aggregator (identical JSON for
// any job insertion order and any merge partitioning — the executable
// form of "byte-identical for any --threads"), and the pinned program
// identity hash of the amevents-v1 log.
//
//===----------------------------------------------------------------------===//

#include "support/Aggregate.h"
#include "support/EventLog.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace am;

namespace {

//===----------------------------------------------------------------------===//
// Shared log2 bucket geometry
//===----------------------------------------------------------------------===//

TEST(Log2Buckets, BoundaryIndices) {
  // 0 and 1 share bucket 0; every power of two opens its own bucket.
  EXPECT_EQ(stats::log2BucketIndex(0, 64), 0u);
  EXPECT_EQ(stats::log2BucketIndex(1, 64), 0u);
  EXPECT_EQ(stats::log2BucketIndex(2, 64), 1u);
  EXPECT_EQ(stats::log2BucketIndex(3, 64), 1u);
  EXPECT_EQ(stats::log2BucketIndex(4, 64), 2u);
  EXPECT_EQ(stats::log2BucketIndex(7, 64), 2u);
  EXPECT_EQ(stats::log2BucketIndex(8, 64), 3u);
  EXPECT_EQ(stats::log2BucketIndex(uint64_t(1) << 40, 64), 40u);
  EXPECT_EQ((uint64_t(1) << 40) - 1, 0xFFFFFFFFFFull);
  EXPECT_EQ(stats::log2BucketIndex((uint64_t(1) << 40) - 1, 64), 39u);
}

TEST(Log2Buckets, ClampsToLastBucket) {
  EXPECT_EQ(stats::log2BucketIndex(uint64_t(1) << 63, 64), 63u);
  EXPECT_EQ(stats::log2BucketIndex(UINT64_MAX, 64), 63u);
  // A narrower array clamps sooner — the Timer's 40-bucket case.
  EXPECT_EQ(stats::log2BucketIndex(UINT64_MAX, 40), 39u);
  EXPECT_EQ(stats::log2BucketIndex(1024, 4), 3u);
}

TEST(Log2Buckets, PercentileMidpointsAndFallback) {
  uint64_t Buckets[8] = {};
  EXPECT_EQ(stats::log2BucketPercentile(Buckets, 8, 0, 0.5, 0, 999), 0u);

  // Samples 1, 2, 4, 8 -> buckets 0..3, one each.
  Buckets[0] = Buckets[1] = Buckets[2] = Buckets[3] = 1;
  // p25 -> rank 1 -> bucket 0, midpoint 1 + 0 = 1.
  EXPECT_EQ(stats::log2BucketPercentile(Buckets, 8, 4, 0.25, 0, 999), 1u);
  // p50 -> rank 2 -> bucket 1 ([2,4)), midpoint 3.
  EXPECT_EQ(stats::log2BucketPercentile(Buckets, 8, 4, 0.5, 0, 999), 3u);
  // p75 -> rank 3 -> bucket 2 ([4,8)), midpoint 6.
  EXPECT_EQ(stats::log2BucketPercentile(Buckets, 8, 4, 0.75, 0, 999), 6u);
  // p100 -> rank 4 -> bucket 3 ([8,16)), midpoint 12.
  EXPECT_EQ(stats::log2BucketPercentile(Buckets, 8, 4, 1.0, 0, 999), 12u);
  // Q clamps: below 0 reads as the minimum rank, above 1 as the maximum.
  EXPECT_EQ(stats::log2BucketPercentile(Buckets, 8, 4, -3.0, 0, 999), 1u);
  EXPECT_EQ(stats::log2BucketPercentile(Buckets, 8, 4, 7.0, 0, 999), 12u);

  // A count larger than the populated buckets (samples clamped into the
  // last bucket of a *wider* source, or a racy snapshot) falls back.
  EXPECT_EQ(stats::log2BucketPercentile(Buckets, 8, 10, 1.0, 0, 999), 999u);
}

TEST(Log2Buckets, PercentilesClampToTheSampleRange) {
  // One sample: every percentile is that sample, not its bucket midpoint.
  fleet::MetricAgg One;
  One.add(1063);
  for (double Q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(One.Hist.percentile(Q), 1063u) << Q;

  // 64..70 share bucket [64, 128) whose midpoint 96 exceeds the max;
  // 120..127 share it with a midpoint below the min.
  fleet::Histogram Low, High;
  for (uint64_t V = 64; V <= 70; ++V)
    Low.add(V);
  for (uint64_t V = 120; V <= 127; ++V)
    High.add(V);
  EXPECT_EQ(Low.percentile(0.5), 70u);
  EXPECT_EQ(Low.percentile(0.99), 70u);
  EXPECT_EQ(High.percentile(0.5), 120u);
  EXPECT_EQ(High.minValue(), 120u);

  // Merging keeps the union's range: [64, 127].
  Low.merge(High);
  EXPECT_EQ(Low.minValue(), 64u);
  EXPECT_EQ(Low.maxValue(), 127u);
  EXPECT_EQ(Low.percentile(0.5), 96u);

  // Uniform 1..1000 through the aggregate: never outside [min, max].
  fleet::MetricAgg Uniform;
  for (uint64_t V = 1; V <= 1000; ++V)
    Uniform.add(V);
  EXPECT_EQ(Uniform.Hist.percentile(0.5), 384u); // 500th, bucket [256, 512)
  EXPECT_EQ(Uniform.Hist.percentile(0.99), 768u); // 990th, [512, 1024)
  for (int Pct = 0; Pct <= 100; ++Pct) {
    uint64_t P = Uniform.Hist.percentile(Pct / 100.0);
    EXPECT_GE(P, Uniform.Min) << Pct;
    EXPECT_LE(P, Uniform.Max) << Pct;
  }
}

TEST(Log2Buckets, PercentileLabels) {
  EXPECT_EQ(stats::percentileLabel(0.5), "p50");
  EXPECT_EQ(stats::percentileLabel(0.95), "p95");
  EXPECT_EQ(stats::percentileLabel(0.99), "p99");
  EXPECT_EQ(stats::percentileLabel(0.999), "p99.9");
  EXPECT_EQ(stats::percentileLabel(0.25), "p25");
  EXPECT_EQ(stats::percentileLabel(0.0), "p0");
  EXPECT_EQ(stats::percentileLabel(1.0), "p100");
  EXPECT_EQ(stats::percentileLabel(2.0), "p100"); // clamped
}

TEST(Log2Buckets, HistogramMatchesHelpers) {
  fleet::Histogram H;
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(2), uint64_t(1000),
                     UINT64_MAX})
    H.add(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.maxValue(), UINT64_MAX);
  EXPECT_EQ(H.bucket(0), 2u); // 0 and 1
  EXPECT_EQ(H.bucket(1), 1u); // 2
  EXPECT_EQ(H.bucket(stats::log2BucketIndex(1000, fleet::Histogram::NumBuckets)),
            1u);
  EXPECT_EQ(H.bucket(fleet::Histogram::NumBuckets - 1), 1u); // clamped max
  // p20 -> rank 1 -> bucket 0 midpoint.
  EXPECT_EQ(H.percentile(0.2), 1u);
}

TEST(Log2Buckets, RegistryDumpPercentilesConfigurable) {
  stats::Registry R;
  stats::Timer &T = R.timer("unit.test_ns");
  for (uint64_t Ns : {64ull, 96ull, 128ull, 4096ull})
    T.record(Ns);
  R.setDumpPercentiles({0.5, 0.999, 0.999 /* dup label dropped */, 2.0});
  ASSERT_EQ(R.dumpPercentiles().size(), 3u); // 0.5, 0.999, clamped 1.0
  std::ostringstream OS;
  R.dumpJson(OS);
  std::string J = OS.str();
  EXPECT_NE(J.find("\"p50_ns\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"p99.9_ns\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"p100_ns\""), std::string::npos) << J;
  EXPECT_EQ(J.find("\"p95_ns\""), std::string::npos) << J;
}

//===----------------------------------------------------------------------===//
// Aggregator determinism
//===----------------------------------------------------------------------===//

fleet::JobEvent makeEvent(uint64_t I) {
  fleet::JobEvent E;
  E.Index = I;
  E.Name = "job" + std::to_string(I);
  E.Hash = fleet::hex16(fleet::fnv1a64(E.Name));
  E.Preset = I % 2 ? "gen" : "examples";
  E.Status = I % 5 == 3 ? "rolled_back" : "ok";
  E.WallNs = 1000 * (I + 1); // must NOT influence the aggregate
  E.Rollbacks = I % 5 == 3 ? 1 : 0;
  E.BlocksBefore = 10 + I;
  E.BlocksAfter = 12 + I;
  E.InstrsBefore = 100 + 7 * I;
  E.InstrsAfter = 90 + 7 * I;
  E.Phases.emplace_back("pipeline", 500 * (I + 1));
  E.Counters.emplace_back("am.rounds", 2 + I % 3);
  E.Counters.emplace_back("dfa.sweeps", 40 + 13 * I);
  if (I % 2)
    E.Counters.emplace_back("pipeline.rollbacks", 1);
  E.RemarkKinds.emplace_back("hoist", 3 + I);
  return E;
}

std::string aggJson(const fleet::Aggregate &A) {
  std::ostringstream OS;
  A.writeJson(OS);
  return OS.str();
}

TEST(Aggregate, SkippedLinesSerializeAndMerge) {
  // amagg-v1 keeps its skipped_lines key; aggregates of live jobs never
  // skip a line, so it reads 0 before and after a merge.
  fleet::Aggregate A;
  A.addJob(makeEvent(0));
  EXPECT_NE(aggJson(A).find("\"skipped_lines\":0"), std::string::npos);

  fleet::Aggregate B;
  B.addJob(makeEvent(1));
  A.merge(B);
  EXPECT_EQ(A.jobs(), 2u);
  EXPECT_NE(aggJson(A).find("\"skipped_lines\":0"), std::string::npos);
}

TEST(Aggregate, InsertionOrderInvariant) {
  std::vector<fleet::JobEvent> Events;
  for (uint64_t I = 0; I < 16; ++I)
    Events.push_back(makeEvent(I));

  fleet::Aggregate InOrder;
  for (const fleet::JobEvent &E : Events)
    InOrder.addJob(E);
  const std::string Golden = aggJson(InOrder);
  EXPECT_NE(Golden.find("\"schema\":\"amagg-v1\""), std::string::npos);
  EXPECT_NE(Golden.find("\"jobs\":16"), std::string::npos);

  // Any completion order folds to the same bytes.
  std::vector<size_t> Perm(Events.size());
  std::iota(Perm.begin(), Perm.end(), 0);
  std::mt19937 Rng(7);
  for (int Round = 0; Round < 5; ++Round) {
    std::shuffle(Perm.begin(), Perm.end(), Rng);
    fleet::Aggregate Shuffled;
    for (size_t I : Perm)
      Shuffled.addJob(Events[I]);
    EXPECT_EQ(aggJson(Shuffled), Golden) << "round " << Round;
  }
}

TEST(Aggregate, MergePartitioningInvariant) {
  std::vector<fleet::JobEvent> Events;
  for (uint64_t I = 0; I < 16; ++I)
    Events.push_back(makeEvent(I));
  fleet::Aggregate InOrder;
  for (const fleet::JobEvent &E : Events)
    InOrder.addJob(E);
  const std::string Golden = aggJson(InOrder);

  // One aggregate per job, merged at the barrier (what ambatch would do
  // with per-worker partials): 16 singletons, merged in index order.
  fleet::Aggregate Merged;
  for (const fleet::JobEvent &E : Events) {
    fleet::Aggregate One;
    One.addJob(E);
    Merged.merge(One);
  }
  EXPECT_EQ(aggJson(Merged), Golden);

  // Uneven halves, merged out of order.
  fleet::Aggregate Front, Back;
  for (uint64_t I = 0; I < 5; ++I)
    Front.addJob(Events[I]);
  for (uint64_t I = 5; I < 16; ++I)
    Back.addJob(Events[I]);
  fleet::Aggregate BackFirst;
  BackFirst.merge(Back);
  BackFirst.merge(Front);
  EXPECT_EQ(aggJson(BackFirst), Golden);
}

TEST(Aggregate, WallTimesExcluded) {
  // Two runs of the same corpus with wildly different wall clocks and
  // phase times must aggregate to identical bytes.
  fleet::Aggregate A, B;
  for (uint64_t I = 0; I < 8; ++I) {
    fleet::JobEvent E = makeEvent(I);
    A.addJob(E);
    E.WallNs *= 1000;
    for (auto &P : E.Phases)
      P.second += 123456;
    B.addJob(E);
  }
  EXPECT_EQ(aggJson(A), aggJson(B));
  EXPECT_EQ(aggJson(A).find("wall"), std::string::npos);
}

TEST(Aggregate, StatsAndSynthesizedMetrics) {
  fleet::Aggregate Agg;
  for (uint64_t I = 0; I < 4; ++I)
    Agg.addJob(makeEvent(I));
  EXPECT_EQ(Agg.jobs(), 4u);
  EXPECT_EQ(Agg.statuses().at("ok"), 3u);
  EXPECT_EQ(Agg.statuses().at("rolled_back"), 1u);
  EXPECT_EQ(Agg.remarkKinds().at("hoist"), 3 + 4 + 5 + 6u);

  const fleet::MetricAgg &Sweeps = Agg.counters().at("dfa.sweeps");
  EXPECT_EQ(Sweeps.Jobs, 4u);
  EXPECT_EQ(Sweeps.Sum, 40u + 53 + 66 + 79);
  EXPECT_EQ(Sweeps.Min, 40u);
  EXPECT_EQ(Sweeps.Max, 79u);
  EXPECT_DOUBLE_EQ(Sweeps.mean(), (40.0 + 53 + 66 + 79) / 4);

  // pipeline.rollbacks only appears in odd jobs; Jobs tracks reporters.
  EXPECT_EQ(Agg.counters().at("pipeline.rollbacks").Jobs, 2u);

  // IR sizes are synthesized as counters.
  EXPECT_EQ(Agg.counters().at("ir.instrs_before").Sum, 100u + 107 + 114 + 121);
  EXPECT_EQ(Agg.counters().at("ir.blocks_after").Min, 12u);
}

//===----------------------------------------------------------------------===//
// Event log identity hash
//===----------------------------------------------------------------------===//

TEST(EventLog, HashIsStableFnv1a) {
  // Pinned reference value: the identity hash must never drift between
  // writers and readers on different machines.
  EXPECT_EQ(fleet::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fleet::hex16(fleet::fnv1a64("")), "cbf29ce484222325");
  EXPECT_NE(fleet::fnv1a64("a"), fleet::fnv1a64("b"));
  EXPECT_EQ(fleet::hex16(0), "0000000000000000");
}

} // namespace
