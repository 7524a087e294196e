//===- support/Stats.h - Session-scoped statistics registry ----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named monotonic counters, gauges and timer histograms,
/// built so that the paper's empirical claims (near-linear dataflow
/// sweeps, a quickly stabilizing AM fixpoint, a final flush that deletes
/// unjustified initializations) are observable on every run.  One
/// registry belongs to one telemetry session (support/Telemetry.h);
/// `Registry::get()` resolves to the calling thread's current session, so
/// concurrent optimization jobs count into disjoint registries.  Code
/// that never installs a session sees the leaked process-default
/// registry — the pre-session singleton behavior, unchanged.
///
/// Usage inside library code:
///
/// \code
///   AM_STAT_COUNTER(NumEvals, "dfa.blocks_processed");
///   AM_STAT_INC(NumEvals);               // one relaxed atomic add
///   AM_STAT_ADD(NumEvals, 4);
///
///   AM_STAT_GAUGE(LastBits, "dfa.last_bits");
///   AM_STAT_SET(LastBits, Problem.numBits());
///
/// \endcode
///
/// Timers are fed by spans: `AM_SPAN(Span, "dfa.solve")`
/// (support/Telemetry.h) times its scope into the timer `dfa.solve_ns`.
///
/// Cost model: `AM_STAT_COUNTER` declares a function-local thread-local
/// cache of the instrument, keyed on the current registry's generation
/// id.  The registry lookup (lock + map) happens once per call site per
/// session; the steady-state cost of an increment is a thread-local read,
/// one integer compare and a single relaxed atomic add — no map lookups,
/// no locks, no allocation.  Compiling with `-DAM_DISABLE_STATS` turns
/// every macro into nothing at all (branch-free: the counter update is
/// not conditionally skipped, it does not exist).  Spans additionally
/// honor the runtime `Registry::setEnabled(false)` switch so the clock is
/// never read for a timer when observation is off.
///
/// Counter naming convention: lower-case dotted paths,
/// `<subsystem>.<quantity>[_<unit>]` — e.g. `dfa.blocks_processed`,
/// `am.rounds`, `flush.inits_deleted`, `dfa.solve_ns`.  Timers always end
/// in `_ns`.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_STATS_H
#define AM_SUPPORT_STATS_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace am::stats {

//===----------------------------------------------------------------------===//
// Shared log2-histogram helpers
//===----------------------------------------------------------------------===//
//
// One implementation of the log-scale bucket geometry, used by
// stats::Timer here and by the fleet aggregator's value histograms
// (support/Aggregate.h) so the two can never drift: bucket i counts
// samples in [2^i, 2^{i+1}), with 0 and 1 sharing bucket 0.

/// floor(log2(max(V, 1))), clamped to NumBuckets - 1.
size_t log2BucketIndex(uint64_t V, size_t NumBuckets);

/// Nearest-rank percentile estimated from a log2 bucket array: the
/// midpoint of the bucket containing the ceil(Q*Count)-th smallest sample
/// (Lo + Lo/2 for bucket lower bound Lo), clamped to the exact sample
/// range [\p Min, \p Max] — so it never leaves the observed range, and a
/// single sample (Min == Max) reports its exact value.  \p Max is also
/// the answer when the rank lies past the populated buckets; 0 when
/// Count is 0.  \p Q is clamped to [0, 1].
uint64_t log2BucketPercentile(const uint64_t *Buckets, size_t NumBuckets,
                              uint64_t Count, double Q, uint64_t Min,
                              uint64_t Max);

/// Display label for a percentile: 0.5 -> "p50", 0.99 -> "p99",
/// 0.999 -> "p99.9".
std::string percentileLabel(double Q);

/// A monotonically increasing event count.
class Counter {
public:
  explicit Counter(std::string Name) : Name(std::move(Name)) {}

  void add(uint64_t Delta) { Value.fetch_add(Delta, std::memory_order_relaxed); }
  uint64_t get() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }
  const std::string &name() const { return Name; }

private:
  std::string Name;
  std::atomic<uint64_t> Value{0};
};

/// A last-write-wins level (e.g. "bits in the most recent solve").
class Gauge {
public:
  explicit Gauge(std::string Name) : Name(std::move(Name)) {}

  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
  int64_t get() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }
  const std::string &name() const { return Name; }

private:
  std::string Name;
  std::atomic<int64_t> Value{0};
};

/// A duration histogram: count, sum, min, max and a log2 bucket per
/// power-of-two of nanoseconds (bucket i counts samples in [2^i, 2^{i+1})).
class Timer {
public:
  static constexpr size_t NumBuckets = 40; // up to ~18 minutes per sample

  explicit Timer(std::string Name) : Name(std::move(Name)) {}

  void record(uint64_t Ns);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t totalNs() const { return TotalNs.load(std::memory_order_relaxed); }
  uint64_t minNs() const { return Count.load(std::memory_order_relaxed) ? MinNs.load(std::memory_order_relaxed) : 0; }
  uint64_t maxNs() const { return MaxNs.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t Idx) const { return Buckets[Idx].load(std::memory_order_relaxed); }

  /// Nearest-rank percentile estimated from the log2 histogram: the
  /// returned value is the midpoint of the bucket containing the Q-th
  /// sample (exact min/max come from minNs()/maxNs()).  \p Q in [0, 1];
  /// 0 when no samples were recorded.
  uint64_t percentileNs(double Q) const;
  void reset();
  const std::string &name() const { return Name; }

private:
  std::string Name;
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> TotalNs{0};
  std::atomic<uint64_t> MinNs{UINT64_MAX};
  std::atomic<uint64_t> MaxNs{0};
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
};

/// One session's registry.  Instruments register lazily on first use
/// (under a lock) and live as long as their registry; the process-default
/// registry is leaked, so its instrument references stay valid for the
/// life of the process (the pre-session contract every existing caller
/// relies on).
class Registry {
public:
  Registry();
  ~Registry();
  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  /// The calling thread's session registry (telemetry::Session::current).
  static Registry &get();

  /// A process-unique id, distinct even across destroy/recreate at the
  /// same address — the cache key of the AM_STAT_* macros (see Cached*
  /// below), so a cached instrument pointer can never dangle into a dead
  /// registry.
  uint64_t generation() const { return Generation; }

  /// Returns the uniquely named instrument, creating it on first use.
  /// Thread-safe; the returned reference is stable forever.
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Timer &timer(const std::string &Name);

  /// Lookup without creation; nullptr when the name was never registered.
  const Counter *findCounter(const std::string &Name) const;
  const Gauge *findGauge(const std::string &Name) const;
  const Timer *findTimer(const std::string &Name) const;

  /// Runtime switch for the timers spans feed (support/Telemetry.h).  Counter
  /// and gauge updates are always live — they are one relaxed atomic and
  /// not worth a branch.
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Zeroes every registered instrument (names stay registered).
  void resetAll();

  /// The percentiles rendered by dumpText/dumpJson for every timer.
  /// Default {0.5, 0.95, 0.99}; values are clamped to [0, 1] and label
  /// collisions (e.g. 0.5 twice) keep the first occurrence.
  void setDumpPercentiles(std::vector<double> Qs);
  std::vector<double> dumpPercentiles() const;

  /// Name-sorted snapshot of every registered counter / gauge — the
  /// fleet event log records these per job.
  std::vector<std::pair<std::string, uint64_t>> counterEntries() const;
  std::vector<std::pair<std::string, int64_t>> gaugeEntries() const;

  /// `name value` lines, sorted by name; timers render count/total/mean.
  void dumpText(std::ostream &OS) const;

  /// One JSON object: {"counters": {...}, "gauges": {...}, "timers":
  /// {name: {count, total_ns, min_ns, max_ns, mean_ns, buckets}}}.
  void dumpJson(std::ostream &OS) const;
  std::string dumpJsonString() const;

  /// Current value of a counter, 0 if never registered.  Handy for
  /// before/after deltas around a region (see PassRecord).
  uint64_t counterValue(const std::string &Name) const;

private:
  struct Impl;
  Impl &impl() const { return *I; }

  std::unique_ptr<Impl> I;
  std::atomic<bool> Enabled{true};
  uint64_t Generation;
};

//===----------------------------------------------------------------------===//
// Per-call-site instrument caches (the AM_STAT_* macro storage)
//===----------------------------------------------------------------------===//

/// A per-call-site, per-thread cache of one named counter.  Re-resolves
/// through `Registry::get()` only when the thread's current registry has
/// a different generation than the cached one, so the steady-state cost
/// of an update is a compare plus the relaxed atomic op.  Constant-
/// initializable, so the `static thread_local` the macros declare needs
/// no init guard.  Implicitly convertible to the underlying instrument
/// for call sites that want the reference itself.
class CachedCounter {
public:
  explicit constexpr CachedCounter(const char *Name) : Name(Name) {}

  Counter &ref() {
    Registry &R = Registry::get();
    if (Gen != R.generation()) {
      Ptr = &R.counter(Name);
      Gen = R.generation();
    }
    return *Ptr;
  }
  operator Counter &() { return ref(); }

  void add(uint64_t Delta) { ref().add(Delta); }
  uint64_t get() { return ref().get(); }
  void reset() { ref().reset(); }

private:
  const char *Name;
  uint64_t Gen = 0; // 0 never matches a live registry
  Counter *Ptr = nullptr;
};

/// As CachedCounter, for gauges.
class CachedGauge {
public:
  explicit constexpr CachedGauge(const char *Name) : Name(Name) {}

  Gauge &ref() {
    Registry &R = Registry::get();
    if (Gen != R.generation()) {
      Ptr = &R.gauge(Name);
      Gen = R.generation();
    }
    return *Ptr;
  }
  operator Gauge &() { return ref(); }

  void set(int64_t V) { ref().set(V); }
  int64_t get() { return ref().get(); }
  void reset() { ref().reset(); }

private:
  const char *Name;
  uint64_t Gen = 0;
  Gauge *Ptr = nullptr;
};

/// As CachedCounter, for timers; resolved against the registry of the
/// session a span already looked up.
class CachedTimer {
public:
  explicit constexpr CachedTimer(const char *Name) : Name(Name) {}

  Timer &ref(Registry &R) {
    if (Gen != R.generation()) {
      Ptr = &R.timer(Name);
      Gen = R.generation();
    }
    return *Ptr;
  }

private:
  const char *Name;
  uint64_t Gen = 0;
  Timer *Ptr = nullptr;
};

} // namespace am::stats

//===----------------------------------------------------------------------===//
// Instrumentation macros
//===----------------------------------------------------------------------===//

#ifndef AM_DISABLE_STATS

/// Declares a function-local per-thread cache of the named counter,
/// resolved against the calling thread's current session registry.  The
/// registry lookup happens once per call site per session; increments
/// after that are a generation compare plus a single relaxed atomic add.
#define AM_STAT_COUNTER(Var, Name)                                             \
  static thread_local ::am::stats::CachedCounter Var{Name}
#define AM_STAT_INC(Var) (Var).add(1)
#define AM_STAT_ADD(Var, Delta) (Var).add(Delta)

#define AM_STAT_GAUGE(Var, Name)                                               \
  static thread_local ::am::stats::CachedGauge Var{Name}
#define AM_STAT_SET(Var, Value) (Var).set(static_cast<int64_t>(Value))

#else // AM_DISABLE_STATS — everything compiles away; branch-free because
      // the update does not exist at all.

#define AM_STAT_COUNTER(Var, Name) do { } while (false)
#define AM_STAT_INC(Var) do { } while (false)
#define AM_STAT_ADD(Var, Delta) do { } while (false)
#define AM_STAT_GAUGE(Var, Name) do { } while (false)
#define AM_STAT_SET(Var, Value) do { } while (false)

#endif // AM_DISABLE_STATS

#endif // AM_SUPPORT_STATS_H
