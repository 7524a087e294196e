//===- support/ThreadPool.h - Fixed-size worker pool -----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size worker pool for the batch-parallel dataflow solves: the
/// sliced engine partitions every dataflow problem into groups of 64-bit
/// word slices and drains each group's fixpoint independently (see
/// dfa/MultiPattern.h).  The pool is deliberately minimal — fixed
/// workers, FIFO queue, futures with exception propagation — because the
/// tasks it runs are coarse (one group fixpoint each) and the determinism
/// contract forbids anything schedule-dependent from leaking out of them.
///
/// Telemetry contract: submit() captures the *submitting* thread's
/// telemetry session and installs it around the task, so worker-side
/// AM_STAT_* updates land in the owning session's registry (whose
/// instruments are atomic and safe to share).  The session profiler is
/// NOT thread-safe; workers that want profiling install a private
/// profiler via prof::OverrideScope and the caller merges the trees
/// deterministically after the join (see support/Profiler.h).
///
/// Thread-count policy, used by every tool and the pipeline:
///
///   * `--threads=N` / `--threads=max` → setGlobalThreadCount();
///   * otherwise the AM_THREADS environment variable ("N" or "max");
///   * otherwise 1 — and a pool of one worker runs every task inline on
///     the submitting thread, so the default build has no threads at all.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_THREADPOOL_H
#define AM_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace am::threads {

/// Number of hardware threads, never 0.
unsigned hardwareConcurrency();

/// Parses a thread-count spec: a positive decimal ("4") or "max" (the
/// hardware concurrency).  Returns 0 and fills \p Error on bad input.
unsigned parseThreadSpec(const std::string &Spec, std::string *Error = nullptr);

/// The process-wide effective thread count: the last setGlobalThreadCount
/// value if one was set, else AM_THREADS from the environment (parsed
/// once; invalid values fall back to 1), else 1.
unsigned globalThreadCount();

/// Overrides the global thread count (0 restores the environment/default
/// resolution).  Call at startup or between jobs, not while solves run.
void setGlobalThreadCount(unsigned N);

/// A fixed pool of \p Workers threads.  With Workers <= 1 no thread is
/// ever created and submit()/parallelFor() run tasks inline on the
/// calling thread — the N=1 collapse that keeps single-threaded runs
/// byte-for-byte identical to a build without this header.
class ThreadPool {
public:
  explicit ThreadPool(unsigned Workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned workers() const { return NumWorkers; }

  /// Enqueues \p Task; the future reports completion and rethrows any
  /// exception the task let escape.  The submitting thread's telemetry
  /// session is installed around the task body.
  std::future<void> submit(std::function<void()> Task);

  /// Runs Body(0) ... Body(N-1), partitioned into one contiguous index
  /// range per worker, and blocks until all complete.  Exceptions are
  /// collected and the one from the lowest range rethrown after the
  /// join, so a throwing body cannot leave stragglers running.  Inline
  /// (in index order, on the calling thread) when the pool has one
  /// worker or N <= 1.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body);

  /// Range form of parallelFor: Body(Begin, End) once per contiguous
  /// partition, so the body can set up per-range scratch instead of
  /// per-index.  Same inline collapse and exception policy.
  void parallelRanges(size_t N,
                      const std::function<void(size_t, size_t)> &Body);

private:
  void workerLoop();

  unsigned NumWorkers;
  std::vector<std::thread> Threads;
  std::queue<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable Ready;
  bool Stop = false;
};

/// The process pool, lazily built at globalThreadCount() workers and
/// rebuilt if that count changed since the last call.  Not for use while
/// another thread is inside it — resolve the pool once per solve.
ThreadPool &pool();

} // namespace am::threads

#endif // AM_SUPPORT_THREADPOOL_H
