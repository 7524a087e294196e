//===- tests/trend_test.cpp - Trend analytics tests ------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The changepoint detector and analysis layer behind tools/amtrend: a
// genuine step is found at its exact index, a lone 3.5-MAD outlier in a
// noisy flat series is not a step, slow drift is reported as drift (not
// gated as a step), and calibration and workload series never gate.
//
//===----------------------------------------------------------------------===//

#include "support/History.h"
#include "support/Trend.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace am;
using trend::SeriesStatus;

namespace {

/// +-1% deterministic noise pattern.
const double Noise1[20] = {1.000, 0.995, 1.004, 0.992, 1.008, 0.997, 1.003,
                           0.990, 1.006, 0.999, 1.002, 0.994, 1.001, 0.996,
                           1.007, 0.993, 1.005, 0.998, 1.009, 0.991};

std::vector<double> stepSeries(size_t N, size_t At, double Before,
                               double After) {
  std::vector<double> V;
  for (size_t I = 0; I < N; ++I)
    V.push_back((I < At ? Before : After) * Noise1[I % 20]);
  return V;
}

hist::HistoryEntry makeEntry(uint64_t TimeMs, uint64_t WallNs,
                             uint64_t CalibNs = 100'000'000,
                             uint64_t Counter = 42, uint64_t Work = 1000) {
  hist::HistoryEntry E;
  E.Source = "ambench";
  E.TimeUnixMs = TimeMs;
  E.GitSha = "sha" + std::to_string(TimeMs);
  E.CalibNs = CalibNs;
  hist::PresetStat P;
  P.WallNs = WallNs;
  P.MadNs = WallNs / 100;
  P.Work.emplace_back("instrs_in", Work);
  E.Presets.emplace_back("dfa/solve", std::move(P));
  E.Counters.emplace_back("dfa.iterations", Counter);
  return E;
}

//===----------------------------------------------------------------------===//
// Step detector
//===----------------------------------------------------------------------===//

TEST(DetectStep, FindsCleanStepAtExactIndex) {
  std::vector<double> V = stepSeries(20, 12, 2.5, 5.0);
  trend::Changepoint CP = trend::detectStep(V);
  ASSERT_TRUE(CP.Found);
  EXPECT_EQ(CP.Index, 12u);
  EXPECT_NEAR(CP.Before, 2.5, 0.05);
  EXPECT_NEAR(CP.After, 5.0, 0.1);
  EXPECT_NEAR(CP.Ratio, 2.0, 0.05);
  EXPECT_GT(CP.Score, 4.0);
}

TEST(DetectStep, FindsStepDown) {
  std::vector<double> V = stepSeries(20, 10, 5.0, 2.5);
  trend::Changepoint CP = trend::detectStep(V);
  ASSERT_TRUE(CP.Found);
  EXPECT_EQ(CP.Index, 10u);
  EXPECT_LT(CP.After, CP.Before);
  EXPECT_NEAR(CP.Ratio, 0.5, 0.05);
}

TEST(DetectStep, ZeroNoiseStepStaysFinite) {
  // Identical samples on both sides: the noise floor keeps the score
  // finite (and huge), not a division by zero.
  std::vector<double> V(6, 100.0);
  for (size_t I = 3; I < 6; ++I)
    V[I] = 200.0;
  trend::Changepoint CP = trend::detectStep(V);
  ASSERT_TRUE(CP.Found);
  EXPECT_EQ(CP.Index, 3u);
  EXPECT_NEAR(CP.Ratio, 2.0, 1e-9);
}

TEST(DetectStep, SingleOutlierInNoisyFlatIsNotAStep) {
  // +-10% noise around 2.5 with one sample far outside — the lone
  // hiccup cannot move a segment median, so no changepoint.
  const double Noise10[20] = {1.00, 0.92, 1.07, 0.95, 1.09, 0.91, 1.04,
                              0.97, 1.08, 0.93, 1.02, 0.96, 1.06, 0.94,
                              1.01, 0.98, 1.05, 0.90, 1.03, 0.99};
  std::vector<double> V;
  for (size_t I = 0; I < 20; ++I)
    V.push_back(2.5 * Noise10[I]);
  V[9] = 2.5 * 1.55; // ~3.5 MADs out
  trend::Changepoint CP = trend::detectStep(V);
  EXPECT_FALSE(CP.Found);
}

TEST(DetectStep, SlowDriftIsNotAStep) {
  // Linear 2.5 -> 5.0 over 20 points: large in-segment deviations at
  // every split keep the score below threshold.
  std::vector<double> V;
  for (size_t I = 0; I < 20; ++I)
    V.push_back(2.5 + 2.5 * static_cast<double>(I) / 19.0);
  trend::Changepoint CP = trend::detectStep(V);
  EXPECT_FALSE(CP.Found);
  // ...but the Theil-Sen drift estimate sees it clearly.
  double Slope = trend::theilSenSlope(V);
  EXPECT_NEAR(Slope, 2.5 / 19.0, 1e-9);
}

TEST(DetectStep, SubMinRelShiftIsNotAStep) {
  std::vector<double> V = stepSeries(20, 10, 100.0, 105.0); // 5% < MinRel
  EXPECT_FALSE(trend::detectStep(V).Found);
}

TEST(DetectStep, TooShortSeriesNeverSteps) {
  std::vector<double> V = {1.0, 1.0, 5.0, 5.0, 5.0}; // < 2 * MinSeg
  EXPECT_FALSE(trend::detectStep(V).Found);
}

TEST(DetectStep, MinSegExcludesOutlierSegments) {
  // 17 flat points then 3 high ones: with MinSeg=3 this IS a step (a
  // sustained new level), with MinSeg=4 it is not yet.
  std::vector<double> V = stepSeries(20, 17, 2.5, 5.0);
  EXPECT_TRUE(trend::detectStep(V).Found);
  trend::StepOptions Opts;
  Opts.MinSeg = 4;
  EXPECT_FALSE(trend::detectStep(V, Opts).Found);
}

//===----------------------------------------------------------------------===//
// Series extraction
//===----------------------------------------------------------------------===//

TEST(BuildSeries, ExtractsNormalizedWallCountersWorkAndCalibration) {
  std::vector<hist::HistoryEntry> Entries;
  Entries.push_back(makeEntry(1, 250'000'000));
  Entries.push_back(makeEntry(2, 260'000'000));
  std::vector<trend::Series> All = trend::buildSeries(Entries);
  ASSERT_EQ(All.size(), 4u); // name-sorted
  EXPECT_EQ(All[0].Name, "calib/spin_ns");
  EXPECT_EQ(All[1].Name, "counter/dfa.iterations");
  EXPECT_EQ(All[2].Name, "wall/dfa/solve");
  EXPECT_EQ(All[3].Name, "work/dfa/solve/instrs_in");
  ASSERT_EQ(All[2].Values.size(), 2u);
  EXPECT_NEAR(All[2].Values[0], 2.5, 1e-9);
  EXPECT_NEAR(All[2].Values[1], 2.6, 1e-9);
}

TEST(BuildSeries, EntryWithoutCalibrationContributesNoWallPoint) {
  std::vector<hist::HistoryEntry> Entries;
  Entries.push_back(makeEntry(1, 250'000'000));
  Entries.push_back(makeEntry(2, 260'000'000, /*CalibNs=*/0));
  std::vector<trend::Series> All = trend::buildSeries(Entries);
  for (const trend::Series &S : All)
    if (S.Name == "wall/dfa/solve") {
      ASSERT_EQ(S.Values.size(), 1u);
      ASSERT_EQ(S.Entries.size(), 1u);
      EXPECT_EQ(S.Entries[0], 0u);
    }
}

TEST(BuildSeries, NormalizationCancelsMachineSpeed) {
  // Same workload on a machine twice as slow: raw wall doubles, the
  // calibration spin doubles, the normalized series is flat.
  std::vector<hist::HistoryEntry> Entries;
  for (uint64_t I = 0; I < 10; ++I)
    Entries.push_back(makeEntry(I, 250'000'000));
  for (uint64_t I = 10; I < 20; ++I)
    Entries.push_back(makeEntry(I, 500'000'000, 200'000'000));
  trend::TrendAnalysis A = trend::analyzeHistory(Entries);
  for (const trend::SeriesVerdict &V : A.Verdicts)
    if (V.S.Name == "wall/dfa/solve") {
      EXPECT_FALSE(V.CP.Found);
    }
  // The calibration series itself stepped: a machine event, not a gate.
  EXPECT_TRUE(A.CalibrationStepped);
  EXPECT_TRUE(trend::gateFailures(A).empty());
}

//===----------------------------------------------------------------------===//
// Analysis and gate
//===----------------------------------------------------------------------===//

std::vector<hist::HistoryEntry> stepHistory(double Factor) {
  std::vector<hist::HistoryEntry> Entries;
  for (uint64_t I = 0; I < 20; ++I) {
    double Base = I < 12 ? 250'000'000.0 : 250'000'000.0 * Factor;
    Entries.push_back(makeEntry(I, static_cast<uint64_t>(Base * Noise1[I])));
  }
  return Entries;
}

TEST(AnalyzeHistory, TwoXStepRegressesAndRanksFirst) {
  trend::TrendAnalysis A = trend::analyzeHistory(stepHistory(2.0));
  std::vector<const trend::SeriesVerdict *> Fails = trend::gateFailures(A);
  ASSERT_EQ(Fails.size(), 1u);
  EXPECT_EQ(Fails[0]->S.Name, "wall/dfa/solve");
  EXPECT_EQ(Fails[0]->CP.Index, 12u);
  // Ranking: the regression leads the verdict list.
  ASSERT_FALSE(A.Verdicts.empty());
  EXPECT_EQ(A.Verdicts[0].S.Name, "wall/dfa/solve");
  EXPECT_EQ(A.Verdicts[0].Status, SeriesStatus::Regressed);
}

TEST(AnalyzeHistory, SubFactorStepReportsButDoesNotGate) {
  // A 1.3x step is detected but stays below the 1.5x gate factor.
  trend::TrendAnalysis A = trend::analyzeHistory(stepHistory(1.3));
  EXPECT_TRUE(trend::gateFailures(A).empty());
  bool Seen = false;
  for (const trend::SeriesVerdict &V : A.Verdicts)
    if (V.S.Name == "wall/dfa/solve") {
      Seen = true;
      EXPECT_TRUE(V.CP.Found);
      EXPECT_EQ(V.Status, SeriesStatus::Step);
    }
  EXPECT_TRUE(Seen);
}

TEST(AnalyzeHistory, StepDownIsImproved) {
  std::vector<hist::HistoryEntry> Entries;
  for (uint64_t I = 0; I < 20; ++I) {
    double Base = I < 10 ? 500'000'000.0 : 250'000'000.0;
    Entries.push_back(makeEntry(I, static_cast<uint64_t>(Base * Noise1[I])));
  }
  trend::TrendAnalysis A = trend::analyzeHistory(Entries);
  EXPECT_TRUE(trend::gateFailures(A).empty());
  for (const trend::SeriesVerdict &V : A.Verdicts)
    if (V.S.Name == "wall/dfa/solve") {
      EXPECT_EQ(V.Status, SeriesStatus::Improved);
    }
}

TEST(AnalyzeHistory, CounterStepGates) {
  // Machine-independent counters gate exactly like normalized wall: a
  // 2x jump in solver iterations is an algorithmic regression.
  std::vector<hist::HistoryEntry> Entries;
  for (uint64_t I = 0; I < 20; ++I)
    Entries.push_back(
        makeEntry(I, 250'000'000, 100'000'000, I < 12 ? 420 : 840));
  trend::TrendAnalysis A = trend::analyzeHistory(Entries);
  std::vector<const trend::SeriesVerdict *> Fails = trend::gateFailures(A);
  ASSERT_EQ(Fails.size(), 1u);
  EXPECT_EQ(Fails[0]->S.Name, "counter/dfa.iterations");
}

TEST(AnalyzeHistory, WorkloadShapeStepNeverGates) {
  // The workload itself was redefined (twice the instructions): a Step
  // to understand, not a regression.
  std::vector<hist::HistoryEntry> Entries;
  for (uint64_t I = 0; I < 20; ++I)
    Entries.push_back(makeEntry(I, 250'000'000, 100'000'000, 420,
                                I < 12 ? 1000 : 2000));
  trend::TrendAnalysis A = trend::analyzeHistory(Entries);
  EXPECT_TRUE(trend::gateFailures(A).empty());
  for (const trend::SeriesVerdict &V : A.Verdicts)
    if (V.S.Name == "work/dfa/solve/instrs_in") {
      EXPECT_TRUE(V.CP.Found);
      EXPECT_EQ(V.Status, SeriesStatus::Step);
    }
}

TEST(AnalyzeHistory, SlowDriftIsReportedAsDrifting) {
  std::vector<hist::HistoryEntry> Entries;
  for (uint64_t I = 0; I < 20; ++I)
    Entries.push_back(makeEntry(
        I, static_cast<uint64_t>(250'000'000.0 * (1.0 + I / 19.0))));
  trend::TrendAnalysis A = trend::analyzeHistory(Entries);
  EXPECT_TRUE(trend::gateFailures(A).empty());
  for (const trend::SeriesVerdict &V : A.Verdicts)
    if (V.S.Name == "wall/dfa/solve") {
      EXPECT_FALSE(V.CP.Found);
      EXPECT_EQ(V.Status, SeriesStatus::Drifting);
      EXPECT_GT(V.DriftRel, 0.25);
    }
}

TEST(AnalyzeHistory, GateFactorIsConfigurable) {
  trend::TrendOptions Opts;
  Opts.GateFactor = 2.5;
  trend::TrendAnalysis A = trend::analyzeHistory(stepHistory(2.0), Opts);
  EXPECT_TRUE(trend::gateFailures(A).empty()); // 2.0x < 2.5x
}

} // namespace
