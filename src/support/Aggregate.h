//===- support/Aggregate.h - Deterministic cross-job aggregation -*- C++-*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic summary of a corpus run (`amagg-v1`): per-counter
/// sums, min/max/mean and fixed-boundary log2 histograms with
/// p50/p95/p99 extraction, merged across jobs.  Aggregates are
/// *mergeable* — ambatch builds one per job and folds them together in
/// job-index order at the barrier — and contain only machine-independent
/// facts (counters, IR sizes, statuses, remark kinds; never wall times
/// or thread counts), so the serialized JSON is byte-identical for any
/// `--threads` value and any job completion order.  The histogram
/// geometry is stats::log2BucketIndex — the exact buckets `stats::Timer`
/// uses — so per-job and cross-job distributions read the same way.
///
/// Wall-clock times stay in the raw event log (support/EventLog.h), the
/// explicitly machine-specific layer.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_AGGREGATE_H
#define AM_SUPPORT_AGGREGATE_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace am::fleet {

struct JobEvent;

/// Fixed-boundary log-scale histogram over uint64 values: bucket i
/// counts values in [2^i, 2^{i+1}), 0 and 1 share bucket 0 (the
/// stats::Timer geometry, via the shared stats:: helpers).
class Histogram {
public:
  static constexpr size_t NumBuckets = 64;

  void add(uint64_t V);
  void merge(const Histogram &O);

  uint64_t count() const { return Count; }
  uint64_t bucket(size_t I) const { return Buckets[I]; }
  uint64_t minValue() const { return Min; }
  uint64_t maxValue() const { return Max; }

  /// Nearest-rank percentile: midpoint of the bucket holding the
  /// ceil(Q*count)-th smallest value, clamped to [minValue(),
  /// maxValue()] (exact for a single value); 0 when empty.
  uint64_t percentile(double Q) const;

private:
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  uint64_t Min = 0; ///< Valid when Count > 0.
  uint64_t Max = 0;
};

/// One metric's cross-job statistics.
struct MetricAgg {
  uint64_t Jobs = 0; ///< Jobs that reported the metric.
  uint64_t Sum = 0;
  uint64_t Min = 0; ///< Valid when Jobs > 0.
  uint64_t Max = 0;
  Histogram Hist;

  void add(uint64_t V);
  void merge(const MetricAgg &O);
  double mean() const {
    return Jobs ? static_cast<double>(Sum) / static_cast<double>(Jobs) : 0.0;
  }
};

/// The mergeable corpus summary.
class Aggregate {
public:
  /// Folds one job in: status and remark-kind tallies, every stats
  /// counter, and the synthesized IR-size metrics `ir.blocks_before/
  /// after` and `ir.instrs_before/after`.  Wall and phase times are
  /// deliberately NOT taken — see the file comment.
  void addJob(const JobEvent &E);

  /// Folds another aggregate in.  merge(A); merge(B) equals adding A's
  /// and B's jobs directly, so per-job aggregates can be combined at the
  /// barrier in job-index order regardless of completion order.
  void merge(const Aggregate &O);

  uint64_t jobs() const { return Jobs; }
  const std::map<std::string, uint64_t> &statuses() const { return Statuses; }
  const std::map<std::string, uint64_t> &remarkKinds() const {
    return RemarkKinds;
  }
  const std::map<std::string, MetricAgg> &counters() const { return Counters; }

  /// Serializes as one amagg-v1 JSON object.  Deterministic: map
  /// iteration is name-sorted, histograms are sparse {"bucket":count}
  /// objects, means render via the writer's fixed %.6g.  The
  /// `skipped_lines` key is always 0: aggregates are built from live
  /// jobs, never from a re-read event log.
  void writeJson(std::ostream &OS) const;

private:
  uint64_t Jobs = 0;
  std::map<std::string, uint64_t> Statuses;
  std::map<std::string, uint64_t> RemarkKinds;
  std::map<std::string, MetricAgg> Counters;
};

} // namespace am::fleet

#endif // AM_SUPPORT_AGGREGATE_H
