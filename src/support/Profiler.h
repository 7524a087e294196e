//===- support/Profiler.h - Hierarchical scoped self-profiler --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hierarchical scoped self-profiler for the optimizer: every
/// `AM_SPAN(Span, "phase")` (support/Telemetry.h) opens a node in a phase
/// tree keyed by the stack of enclosing scopes, and the node accumulates
/// inclusive wall time, a call count, and the heap-allocation delta
/// (bytes and allocation count) observed while the scope was open.  The
/// tree answers the question the flat stats registry cannot: *where* does
/// the time go — parse vs. the rae/aht fixpoint vs. each Table 1-3
/// analysis vs. the final flush — and what does each phase allocate.
///
/// Usage inside library code:
///
/// \code
///   void runHoistingPhase(...) {
///     AM_SPAN(Span, "aht");
///     ...
///   }
/// \endcode
///
/// Cost model mirrors support/Stats.h: a span's profiler sink costs one
/// thread-local load and one relaxed atomic load when profiling is off (the
/// common case), and under `-DAM_DISABLE_STATS` the span does not exist at all.
/// When on, enter/leave each read the steady clock once and the two
/// process-wide allocation counters; total overhead over an uninstrumented run
/// stays below 5% because scopes wrap coarse phases, never per-bit work.  The
/// profiler never mutates the program, so optimized output is byte-identical
/// with profiling on, off, or compiled out.
///
/// Timestamps: every node additionally records the first-entry/last-exit
/// microsecond offsets on the *same* steady-clock epoch the Chrome tracer
/// uses (see trace::epochNowUs), so a phase tree and a `--trace` file from
/// the same run align span for span.
///
/// The profiler is per telemetry session (see support/Telemetry.h) and,
/// like the remark sink's pass/round context, assumes the optimizer
/// pipeline is single-threaded: enter/leave maintain a plain scope stack.
/// Concurrent jobs each install their own session and profile
/// independently.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_PROFILER_H
#define AM_SUPPORT_PROFILER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace am::stats {
class Registry;
} // namespace am::stats
namespace am::telemetry {
class Session;
} // namespace am::telemetry

namespace am::prof {

//===----------------------------------------------------------------------===//
// Process-wide allocation accounting
//===----------------------------------------------------------------------===//

/// Cumulative bytes ever requested through `operator new` (monotonic;
/// deallocation is not subtracted — phase deltas of a monotonic counter
/// attribute allocation churn to the phase that caused it).  Always 0 when
/// allocation interposition is unavailable on this platform.
uint64_t allocatedBytes();

/// Cumulative number of `operator new` calls (monotonic, as above).
uint64_t allocationCount();

/// True when the build interposes `operator new` and the counters above
/// are live.
bool allocTrackingAvailable();

/// Peak resident set size of this process in bytes, via
/// `getrusage(RUSAGE_SELF)` where available; 0 elsewhere.
uint64_t peakRssBytes();

/// Publishes the memory gauges onto \p R: `mem.peak_rss_bytes`,
/// `mem.alloc_bytes` and `mem.alloc_count`.  Gauges that are unavailable
/// on this platform are simply not registered, so `--stats` output stays
/// honest rather than reporting zeros.
void recordMemoryGauges(stats::Registry &R);

//===----------------------------------------------------------------------===//
// Profiler
//===----------------------------------------------------------------------===//

/// The phase-tree profiler of one telemetry session.
class Profiler {
public:
  /// Index of the implicit root node (the session itself; never entered
  /// or left).  Its dumped wall_ns is the time since the last reset(),
  /// so it covers its children; node(RootId).WallNs stays 0.
  static constexpr uint32_t RootId = 0;

  struct Node {
    std::string Name;
    uint32_t Parent = RootId;
    /// Children in first-entry order — the order is a property of the
    /// program's control flow, so two runs over the same input produce
    /// the same tree shape.
    std::vector<uint32_t> Children;
    uint64_t Calls = 0;
    uint64_t WallNs = 0;     ///< Inclusive wall time over all calls.
    uint64_t AllocBytes = 0; ///< Heap bytes requested while open.
    uint64_t AllocCalls = 0; ///< operator-new calls while open.
    /// First-entry / last-exit offsets (µs) on the tracer's clock epoch.
    uint64_t FirstStartUs = 0;
    uint64_t LastEndUs = 0;
  };

  Profiler() { reset(); }
  Profiler(const Profiler &) = delete;
  Profiler &operator=(const Profiler &) = delete;

  /// The calling thread's session profiler (see telemetry::Session), or
  /// the thread-local override installed by OverrideScope — the hook
  /// worker threads use to profile into a private tree instead of the
  /// shared (non-thread-safe) session one.
  static Profiler &get();

  /// As get(), for a session the caller already looked up: the thread
  /// override if one is installed, else \p S's profiler.
  static Profiler &of(telemetry::Session &S);

  /// Installs \p P as this thread's profiler (nullptr removes the
  /// override and get() falls back to the session profiler).  Returns
  /// the previous override.  Prefer OverrideScope.
  static Profiler *setThreadOverride(Profiler *P);

  /// Runtime switch.  Off by default; a span reads it once at entry.
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Drops every node and open frame (the root survives) and restarts
  /// the root's clock.
  void reset();

  /// Opens the child \p Name of the innermost open scope, creating the
  /// node on first entry.  \p Name is copied; dynamic names are fine.
  void enter(std::string_view Name);

  /// Closes the innermost open scope.  A leave() without a matching
  /// enter() is ignored — unbalanced instrumentation must never crash the
  /// optimizer it observes.
  void leave();

  /// Number of open scopes.
  size_t depth() const { return Stack.size(); }

  /// Nodes, index 0 is the root.  Stable across enter() calls.
  size_t numNodes() const { return Nodes.size(); }
  const Node &node(uint32_t Id) const { return Nodes[Id]; }

  /// The tree shape as one canonical string — names, call counts and
  /// structure, no times — e.g. `root{parse(1),uniform(1){init(1),am(1)}}`.
  /// Two runs over the same input must agree on this string exactly
  /// (tests/profiler_test.cpp locks it in).
  std::string treeShape() const;

  /// Folds \p Worker's phase tree (the children of its root) into the
  /// innermost open scope of this profiler (the root if none is open):
  /// call counts, wall time and allocation deltas add; FirstStartUs takes
  /// the earliest, LastEndUs the latest.  Children of every merged node
  /// are visited in *name-sorted* order, so the resulting tree shape
  /// depends only on the set of scopes the workers entered — never on
  /// thread scheduling — as long as the caller merges its workers in a
  /// fixed (e.g. batch-index) order.  \p Worker must be quiescent: no
  /// scope open, no other thread inside it.
  void merge(const Profiler &Worker);

  /// Collapsed-stack ("folded") rendering, one line per tree node:
  /// `parse 1234\nuniform;am;rae 5678\n` — exclusive nanoseconds per
  /// stack, the input format of flamegraph.pl / speedscope / inferno.
  std::string toCollapsedString() const;

  /// The full phase tree as one JSON object:
  /// {"schema":"amprof-v1","clock":"steady, shared with --trace",
  ///  "tree":{...recursive nodes...},"collapsed":"..."}.
  std::string toJsonString() const;

  /// Writes toJsonString() to \p Path.  False on I/O error.
  bool writeJsonFile(const std::string &Path) const;

private:
  struct Frame {
    uint32_t NodeId;
    uint64_t StartNs;
    uint64_t StartAllocBytes;
    uint64_t StartAllocCalls;
  };

  uint32_t childNamed(uint32_t Parent, std::string_view Name);
  void mergeNode(uint32_t DstParent, const Profiler &Src, uint32_t SrcId);

  std::vector<Node> Nodes;
  std::vector<Frame> Stack;
  uint64_t RootStartNs = 0; ///< Steady clock at the last reset().
  std::atomic<bool> Enabled{false};
};

/// RAII thread-profiler override: while alive, AM_SPAN on this
/// thread records into \p P instead of the session profiler.  The worker
/// pattern: give each parallel task its own Profiler, open scopes inside
/// the task, and after the join merge() the task profilers into the
/// session tree in task-index order.
class OverrideScope {
public:
  explicit OverrideScope(Profiler *P) : Prev(Profiler::setThreadOverride(P)) {}
  ~OverrideScope() { Profiler::setThreadOverride(Prev); }
  OverrideScope(const OverrideScope &) = delete;
  OverrideScope &operator=(const OverrideScope &) = delete;

private:
  Profiler *Prev;
};

} // namespace am::prof

#endif // AM_SUPPORT_PROFILER_H
