//===- support/Trend.h - Longitudinal trend analytics ----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time-series analytics over the run history (support/History.h), the
/// layer behind `tools/amtrend`.  From a chronologically sorted history
/// it extracts one series per measured quantity —
///
///   wall/<preset>     calibration-normalized preset wall time
///                     (wall_ns / calib_ns, machine-neutral by
///                     construction: a uniformly slower machine scales
///                     numerator and denominator alike),
///   counter/<name>    machine-independent counters,
///   work/<preset>/<fact>  per-preset workload facts, and
///   calib/spin_ns     the raw calibration series itself (a step here
///                     is a *machine* event, never gated) —
///
/// and runs a robust step/changepoint detector on each: segment medians
/// on both sides of every candidate split, scored against the in-
/// segment absolute deviation around those medians, so a single
/// scheduler-hiccup outlier cannot fake a step (its effect on a segment
/// median is nil) while a genuine level shift scores far above the
/// noise.  Slow monotone drift is detected separately via a Theil–Sen
/// median slope and reported, not gated as a step.
///
/// The gate contract mirrors the repo's other checkers: a series FAILS
/// when a step *up* (slower / more work) of ratio >= GateFactor is
/// found; improvements and sub-factor steps are reported as notes.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_TREND_H
#define AM_SUPPORT_TREND_H

#include <cstdint>
#include <string>
#include <vector>

namespace am::hist {
struct HistoryEntry;
} // namespace am::hist

namespace am::trend {

/// What a series measures — controls units in reports and whether the
/// gate may fire on it.
enum class SeriesKind : uint8_t {
  NormalizedWall, ///< wall/<preset>: wall_ns / calib_ns, unitless.
  Counter,        ///< counter/<name>: machine-independent work count.
  Work,           ///< work/<preset>/<fact>: workload shape fact.
  Calibration,    ///< calib/spin_ns: raw machine speed (never gated).
};

/// One quantity over time.  Values[i] was measured by history entry
/// Entries[i] (an index into the sorted entry vector); entries missing
/// the quantity simply contribute no point, so series of different
/// density coexist.
struct Series {
  std::string Name;
  SeriesKind Kind = SeriesKind::Counter;
  std::vector<double> Values;
  std::vector<size_t> Entries;
};

/// A detected level shift: the series was statistically flat at Before
/// up to (exclusive) Index, and flat at After from Index on.
struct Changepoint {
  bool Found = false;
  size_t Index = 0;   ///< First point of the right (new-level) segment.
  double Before = 0;  ///< Left-segment median.
  double After = 0;   ///< Right-segment median.
  double Score = 0;   ///< |After-Before| / in-segment noise scale.
  double Ratio = 0;   ///< After / Before; huge when Before == 0.
};

struct StepOptions {
  /// Minimum points per segment: a "step" needs at least this many
  /// observations on each side, so one outlier can never be a segment.
  unsigned MinSeg = 3;
  /// Detection threshold on Score (step size in units of the mean
  /// absolute deviation around the segment medians).
  double KMad = 4.0;
  /// Minimum relative level change; sub-10% shifts are not steps.
  double MinRel = 0.10;
};

/// Runs the step detector over \p Values.  Deterministic; O(n^2) over
/// series lengths that are dozens of points.
Changepoint detectStep(const std::vector<double> &Values,
                       const StepOptions &Opts = StepOptions());

/// Theil–Sen median slope per step of \p Values (robust to outliers);
/// 0 when fewer than 2 points.
double theilSenSlope(const std::vector<double> &Values);

enum class SeriesStatus : uint8_t {
  Flat,     ///< No step, no drift.
  Step,     ///< Step up below the gate factor (reported, not gated).
  Regressed,///< Step up at or above the gate factor (gate fails).
  Improved, ///< Step down.
  Drifting, ///< No step, but a monotone drift beyond the threshold.
};

const char *statusName(SeriesStatus S);

/// One series with its verdict, ready for ranking and rendering.
struct SeriesVerdict {
  Series S;
  Changepoint CP;
  SeriesStatus Status = SeriesStatus::Flat;
  /// Theil–Sen slope * (n-1) / |median|: the relative level change a
  /// sustained drift amounts to across the whole series.
  double DriftRel = 0;
};

struct TrendOptions {
  StepOptions Step;
  /// A step up must reach this ratio (After/Before) to fail the gate.
  double GateFactor = 1.5;
  /// |DriftRel| beyond this flags the series as Drifting.
  double DriftThreshold = 0.25;
};

/// The full analysis of one history.
struct TrendAnalysis {
  /// Every series with its verdict, ranked most-severe first:
  /// Regressed, then Step, then Drifting, then Improved, then Flat;
  /// within a class by |relative change| descending, name ascending.
  std::vector<SeriesVerdict> Verdicts;
  /// Informational lines (too-short series, zero-calibration entries,
  /// calibration steps = machine events).
  std::vector<std::string> Notes;
  size_t NumEntries = 0;
  /// The calibration series stepped: the machine itself changed speed
  /// somewhere in the history.  Normalization already cancels it from
  /// the wall series; this is surfaced so a coincident raw-wall change
  /// reads as a machine event, not a code regression.
  bool CalibrationStepped = false;
};

/// Extracts every series from \p Entries (which must already be in
/// chronological order — hist::sortByTime).  Entries with CalibNs == 0
/// contribute no normalized-wall points (noted by analyzeHistory).
std::vector<Series> buildSeries(const std::vector<hist::HistoryEntry> &Entries);

/// buildSeries + detectStep/drift per series + ranking.
TrendAnalysis analyzeHistory(const std::vector<hist::HistoryEntry> &Entries,
                             const TrendOptions &Opts = TrendOptions());

/// The series that fail the gate (Status == Regressed).  Convenience
/// over scanning Verdicts.
std::vector<const SeriesVerdict *> gateFailures(const TrendAnalysis &A);

} // namespace am::trend

#endif // AM_SUPPORT_TREND_H
