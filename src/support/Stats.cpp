//===- support/Stats.cpp - Process-wide statistics registry --------------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>

using namespace am;
using namespace am::stats;

size_t stats::log2BucketIndex(uint64_t V, size_t NumBuckets) {
  size_t Bucket = 0;
  while (V > 1 && Bucket + 1 < NumBuckets) {
    V >>= 1;
    ++Bucket;
  }
  return Bucket;
}

uint64_t stats::log2BucketPercentile(const uint64_t *Buckets,
                                     size_t NumBuckets, uint64_t Count,
                                     double Q, uint64_t Min, uint64_t Max) {
  if (Count == 0)
    return 0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  // Nearest-rank: the ceil(Q*N)-th smallest sample, clamped to [1, N].
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Count));
  if (static_cast<double>(Rank) < Q * static_cast<double>(Count))
    ++Rank;
  if (Rank < 1)
    Rank = 1;
  if (Rank > Count)
    Rank = Count;
  uint64_t Seen = 0;
  for (size_t B = 0; B < NumBuckets; ++B) {
    Seen += Buckets[B];
    if (Seen >= Rank) {
      // Bucket B covers [2^B, 2^{B+1}) (0 and 1 both land in bucket 0);
      // report its midpoint, kept inside the observed sample range.
      uint64_t Lo = static_cast<uint64_t>(1) << B;
      return std::clamp(Lo + Lo / 2, Min, std::max(Min, Max));
    }
  }
  return Max;
}

std::string stats::percentileLabel(double Q) {
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  // Render Q*100 with enough precision for labels like p99.9, trimming
  // trailing zeros ("50.000000" -> "50").
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.4f", Q * 100.0);
  std::string S(Buf);
  while (!S.empty() && S.back() == '0')
    S.pop_back();
  if (!S.empty() && S.back() == '.')
    S.pop_back();
  return "p" + S;
}

void Timer::record(uint64_t Ns) {
  Count.fetch_add(1, std::memory_order_relaxed);
  TotalNs.fetch_add(Ns, std::memory_order_relaxed);
  // min/max via CAS loops; contention here is negligible (timers wrap
  // coarse regions, not per-bit work).
  uint64_t Cur = MinNs.load(std::memory_order_relaxed);
  while (Ns < Cur &&
         !MinNs.compare_exchange_weak(Cur, Ns, std::memory_order_relaxed))
    ;
  Cur = MaxNs.load(std::memory_order_relaxed);
  while (Ns > Cur &&
         !MaxNs.compare_exchange_weak(Cur, Ns, std::memory_order_relaxed))
    ;
  Buckets[log2BucketIndex(Ns, NumBuckets)].fetch_add(
      1, std::memory_order_relaxed);
}

uint64_t Timer::percentileNs(double Q) const {
  uint64_t Snapshot[NumBuckets];
  for (size_t B = 0; B < NumBuckets; ++B)
    Snapshot[B] = Buckets[B].load(std::memory_order_relaxed);
  return log2BucketPercentile(Snapshot, NumBuckets,
                              Count.load(std::memory_order_relaxed), Q,
                              minNs(), maxNs());
}

void Timer::reset() {
  Count.store(0, std::memory_order_relaxed);
  TotalNs.store(0, std::memory_order_relaxed);
  MinNs.store(UINT64_MAX, std::memory_order_relaxed);
  MaxNs.store(0, std::memory_order_relaxed);
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// Instruments live in deques so that creating a new one never moves an
/// existing one — the macros cache references for the registry lifetime.
struct Registry::Impl {
  mutable std::mutex Mu;
  std::deque<Counter> Counters;
  std::deque<Gauge> Gauges;
  std::deque<Timer> Timers;
  std::map<std::string, Counter *> CounterByName;
  std::map<std::string, Gauge *> GaugeByName;
  std::map<std::string, Timer *> TimerByName;
  std::vector<double> DumpPercentiles{0.5, 0.95, 0.99};
};

namespace {
// Generation 0 is reserved as "never resolved" in the macro caches.
std::atomic<uint64_t> NextGeneration{1};
} // namespace

Registry::Registry()
    : I(std::make_unique<Impl>()),
      Generation(NextGeneration.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry &Registry::get() {
  // The process-default session's registry is leaked (see
  // telemetry::Session::processDefault), so default-session instrument
  // references outlive every static destructor that might still fire an
  // increment — the pre-session contract.
  return telemetry::Session::current().stats();
}

Counter &Registry::counter(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto It = I.CounterByName.find(Name);
  if (It != I.CounterByName.end())
    return *It->second;
  I.Counters.emplace_back(Name);
  Counter &C = I.Counters.back();
  I.CounterByName.emplace(Name, &C);
  return C;
}

Gauge &Registry::gauge(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto It = I.GaugeByName.find(Name);
  if (It != I.GaugeByName.end())
    return *It->second;
  I.Gauges.emplace_back(Name);
  Gauge &G = I.Gauges.back();
  I.GaugeByName.emplace(Name, &G);
  return G;
}

Timer &Registry::timer(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto It = I.TimerByName.find(Name);
  if (It != I.TimerByName.end())
    return *It->second;
  I.Timers.emplace_back(Name);
  Timer &T = I.Timers.back();
  I.TimerByName.emplace(Name, &T);
  return T;
}

const Counter *Registry::findCounter(const std::string &Name) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto It = I.CounterByName.find(Name);
  return It == I.CounterByName.end() ? nullptr : It->second;
}

const Gauge *Registry::findGauge(const std::string &Name) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto It = I.GaugeByName.find(Name);
  return It == I.GaugeByName.end() ? nullptr : It->second;
}

const Timer *Registry::findTimer(const std::string &Name) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto It = I.TimerByName.find(Name);
  return It == I.TimerByName.end() ? nullptr : It->second;
}

uint64_t Registry::counterValue(const std::string &Name) const {
  const Counter *C = findCounter(Name);
  return C ? C->get() : 0;
}

void Registry::resetAll() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  for (Counter &C : I.Counters)
    C.reset();
  for (Gauge &G : I.Gauges)
    G.reset();
  for (Timer &T : I.Timers)
    T.reset();
}

void Registry::setDumpPercentiles(std::vector<double> Qs) {
  for (double &Q : Qs) {
    if (Q < 0.0)
      Q = 0.0;
    if (Q > 1.0)
      Q = 1.0;
  }
  // Drop label duplicates (keep first) so a dump never emits the same
  // JSON key twice.
  std::vector<double> Unique;
  std::vector<std::string> Labels;
  for (double Q : Qs) {
    std::string L = percentileLabel(Q);
    if (std::find(Labels.begin(), Labels.end(), L) == Labels.end()) {
      Labels.push_back(L);
      Unique.push_back(Q);
    }
  }
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  I.DumpPercentiles = std::move(Unique);
}

std::vector<double> Registry::dumpPercentiles() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  return I.DumpPercentiles;
}

std::vector<std::pair<std::string, uint64_t>> Registry::counterEntries() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(I.CounterByName.size());
  for (const auto &[Name, C] : I.CounterByName)
    Out.emplace_back(Name, C->get());
  return Out;
}

std::vector<std::pair<std::string, int64_t>> Registry::gaugeEntries() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  std::vector<std::pair<std::string, int64_t>> Out;
  Out.reserve(I.GaugeByName.size());
  for (const auto &[Name, G] : I.GaugeByName)
    Out.emplace_back(Name, G->get());
  return Out;
}

void Registry::dumpText(std::ostream &OS) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  // The by-name maps are already sorted; interleave all three kinds into
  // one alphabetical listing.
  std::vector<std::pair<std::string, std::string>> Lines;
  for (const auto &[Name, C] : I.CounterByName)
    Lines.emplace_back(Name, std::to_string(C->get()));
  for (const auto &[Name, G] : I.GaugeByName)
    Lines.emplace_back(Name, std::to_string(G->get()));
  for (const auto &[Name, T] : I.TimerByName) {
    std::ostringstream V;
    uint64_t N = T->count();
    V << N << " samples, total " << T->totalNs() << " ns";
    if (N) {
      V << ", mean " << (T->totalNs() / N) << " ns, min " << T->minNs()
        << " ns, max " << T->maxNs() << " ns";
      for (double Q : I.DumpPercentiles)
        V << ", " << percentileLabel(Q) << " ~" << T->percentileNs(Q) << " ns";
    }
    Lines.emplace_back(Name, V.str());
  }
  std::sort(Lines.begin(), Lines.end());
  size_t Width = 0;
  for (const auto &[Name, Value] : Lines)
    Width = std::max(Width, Name.size());
  for (const auto &[Name, Value] : Lines)
    OS << Name << std::string(Width - Name.size() + 2, ' ') << Value << "\n";
}

void Registry::dumpJson(std::ostream &OS) const {
  OS << dumpJsonString();
}

std::string Registry::dumpJsonString() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  std::string Out;
  json::Writer W(Out);
  W.beginObject();

  W.key("counters").beginObject();
  for (const auto &[Name, C] : I.CounterByName)
    W.key(Name).value(C->get());
  W.endObject();

  W.key("gauges").beginObject();
  for (const auto &[Name, G] : I.GaugeByName)
    W.key(Name).value(G->get());
  W.endObject();

  W.key("timers").beginObject();
  for (const auto &[Name, T] : I.TimerByName) {
    W.key(Name).beginObject();
    uint64_t N = T->count();
    W.key("count").value(N);
    W.key("total_ns").value(T->totalNs());
    W.key("min_ns").value(T->minNs());
    W.key("max_ns").value(T->maxNs());
    W.key("mean_ns").value(N ? T->totalNs() / N : 0);
    for (double Q : I.DumpPercentiles)
      W.key(percentileLabel(Q) + "_ns").value(T->percentileNs(Q));
    // Sparse log2 histogram: {"<floor log2 ns>": count}.
    W.key("log2_buckets").beginObject();
    for (size_t B = 0; B < Timer::NumBuckets; ++B)
      if (uint64_t BN = T->bucket(B))
        W.key(std::to_string(B)).value(BN);
    W.endObject();
    W.endObject();
  }
  W.endObject();

  W.endObject();
  return Out;
}
