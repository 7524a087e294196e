//===- support/Aggregate.cpp - Deterministic cross-job aggregation -------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Aggregate.h"
#include "support/EventLog.h"
#include "support/Json.h"
#include "support/Stats.h"

#include <algorithm>
#include <ostream>

using namespace am;
using namespace am::fleet;

void Histogram::add(uint64_t V) {
  Buckets[stats::log2BucketIndex(V, NumBuckets)] += 1;
  Min = Count == 0 ? V : std::min(Min, V);
  Max = std::max(Max, V);
  ++Count;
}

void Histogram::merge(const Histogram &O) {
  if (O.Count == 0)
    return;
  for (size_t B = 0; B < NumBuckets; ++B)
    Buckets[B] += O.Buckets[B];
  Min = Count == 0 ? O.Min : std::min(Min, O.Min);
  Max = std::max(Max, O.Max);
  Count += O.Count;
}

uint64_t Histogram::percentile(double Q) const {
  return stats::log2BucketPercentile(Buckets, NumBuckets, Count, Q, Min, Max);
}

void MetricAgg::add(uint64_t V) {
  if (Jobs == 0) {
    Min = Max = V;
  } else {
    Min = std::min(Min, V);
    Max = std::max(Max, V);
  }
  ++Jobs;
  Sum += V;
  Hist.add(V);
}

void MetricAgg::merge(const MetricAgg &O) {
  if (O.Jobs == 0)
    return;
  if (Jobs == 0) {
    Min = O.Min;
    Max = O.Max;
  } else {
    Min = std::min(Min, O.Min);
    Max = std::max(Max, O.Max);
  }
  Jobs += O.Jobs;
  Sum += O.Sum;
  Hist.merge(O.Hist);
}

void Aggregate::addJob(const JobEvent &E) {
  ++Jobs;
  Statuses[E.Status] += 1;
  for (const auto &[Kind, N] : E.RemarkKinds)
    RemarkKinds[Kind] += N;
  for (const auto &[Name, V] : E.Counters)
    Counters[Name].add(V);
  Counters["ir.blocks_before"].add(E.BlocksBefore);
  Counters["ir.blocks_after"].add(E.BlocksAfter);
  Counters["ir.instrs_before"].add(E.InstrsBefore);
  Counters["ir.instrs_after"].add(E.InstrsAfter);
}

void Aggregate::merge(const Aggregate &O) {
  Jobs += O.Jobs;
  for (const auto &[S, N] : O.Statuses)
    Statuses[S] += N;
  for (const auto &[K, N] : O.RemarkKinds)
    RemarkKinds[K] += N;
  for (const auto &[Name, M] : O.Counters)
    Counters[Name].merge(M);
}

void Aggregate::writeJson(std::ostream &OS) const {
  json::Writer W(OS);
  W.beginObject();
  W.key("schema").value("amagg-v1");
  W.key("jobs").value(Jobs);
  W.key("skipped_lines").value(uint64_t{0});

  W.key("status").beginObject();
  for (const auto &[S, N] : Statuses)
    W.key(S).value(N);
  W.endObject();

  W.key("remarks").beginObject();
  for (const auto &[K, N] : RemarkKinds)
    W.key(K).value(N);
  W.endObject();

  W.key("counters").beginObject();
  for (const auto &[Name, M] : Counters) {
    W.key(Name).beginObject();
    W.key("jobs").value(M.Jobs);
    W.key("sum").value(M.Sum);
    W.key("min").value(M.Jobs ? M.Min : 0);
    W.key("max").value(M.Max);
    W.key("mean").value(M.mean());
    W.key("p50").value(M.Hist.percentile(0.5));
    W.key("p95").value(M.Hist.percentile(0.95));
    W.key("p99").value(M.Hist.percentile(0.99));
    W.key("hist").beginObject();
    for (size_t B = 0; B < Histogram::NumBuckets; ++B)
      if (uint64_t N = M.Hist.bucket(B))
        W.key(std::to_string(B)).value(N);
    W.endObject();
    W.endObject();
  }
  W.endObject();

  W.endObject();
}
