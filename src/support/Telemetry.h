//===- support/Telemetry.h - Per-job telemetry session ---------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One `telemetry::Session` owns every observation sink of one
/// optimization job: the stats `Registry` (support/Stats.h), the remark
/// `Sink` (support/Remarks.h), the phase `Profiler` (support/Profiler.h)
/// and the flight-recorder hook slot (report/Recorder.h).  Before this
/// refactor each of those was a process-wide singleton; now the
/// singletons' `get()` accessors resolve through the calling thread's
/// *current* session, so a corpus runner (tools/ambatch) can run one job
/// per worker thread with fully isolated telemetry — nothing the
/// optimizer observes is process-global any more.
///
/// Compatibility contract: code that never installs a session keeps the
/// exact pre-refactor behavior.  A leaked process-default session backs
/// every thread whose current pointer is unset, so `Registry::get()`,
/// `Sink::get()` and friends still hand out stable, never-deallocated
/// instruments in single-job binaries (amopt today, every test).
///
/// \code
///   am::telemetry::Session Job;           // fresh registry/sink/profiler
///   {
///     am::telemetry::SessionScope Scope(Job);   // this thread now
///     runPipeline(G, Passes, Opts);             // observes into Job
///   }                                     // previous session restored
///   std::string Stats = Job.stats().dumpJsonString();
/// \endcode
///
/// One span feeds every sink: `AM_SPAN(Span, "dfa.solve")` reads the
/// current session once and, each behind its own session switch, opens
/// the profiler node `dfa.solve` (profiler().setEnabled, off by default),
/// records the Chrome trace event `dfa.solve` with the `Span.arg(...)`
/// arguments (setTracing, off by default) and times the stats timer
/// `dfa.solve_ns` (stats().setEnabled, on by default).
///
/// What stays process-wide on purpose: the Chrome trace event collector,
/// its clock origin (shared with the profiler via trace::epochNowUs) and
/// the trace file's atexit flush — one timeline per process is what trace
/// viewers expect — and the two cumulative allocation counters (operator
/// new has no session context).
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_TELEMETRY_H
#define AM_SUPPORT_TELEMETRY_H

#include "support/Stats.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace am::remarks {
class Sink;
} // namespace am::remarks
namespace am::prof {
class Profiler;
} // namespace am::prof
namespace am::report {
class RecorderSession;
} // namespace am::report

namespace am::telemetry {

/// Owns the telemetry sinks of one optimization job.  Sessions are
/// independent: instruments registered in one are invisible to another.
/// A session must outlive every SessionScope that installs it.
class Session {
public:
  Session();
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  stats::Registry &stats();
  remarks::Sink &remarks();
  prof::Profiler &profiler();

  /// The flight-recorder hook slot: RecorderSession::install() attaches
  /// here, RecorderSession::current() reads it back.  Owned by the
  /// caller, not the session.
  report::RecorderSession *recorder() const { return Recorder; }
  void setRecorder(report::RecorderSession *R) { Recorder = R; }

  /// Whether spans and instants on threads observing this session record
  /// Chrome trace events.  Off by default.
  bool tracing() const { return Tracing.load(std::memory_order_relaxed); }
  void setTracing(bool On) { Tracing.store(On, std::memory_order_relaxed); }

  /// The session observing the calling thread: the innermost installed
  /// SessionScope's, or the process default.
  static Session &current();

  /// The leaked process-default session backing threads with no scope
  /// installed.  Never destroyed, so instrument references handed out by
  /// the macros survive static destruction (pre-refactor behavior).
  static Session &processDefault();

private:
  std::unique_ptr<stats::Registry> Stats;
  std::unique_ptr<remarks::Sink> Remarks;
  std::unique_ptr<prof::Profiler> Prof;
  report::RecorderSession *Recorder = nullptr;
  std::atomic<bool> Tracing{false};
};

/// RAII: makes \p S the calling thread's current session; restores the
/// previous current (possibly none) on destruction.  Scopes nest.
class SessionScope {
public:
  explicit SessionScope(Session &S);
  ~SessionScope();
  SessionScope(const SessionScope &) = delete;
  SessionScope &operator=(const SessionScope &) = delete;

private:
  Session *Prev;
};

/// The span AM_SPAN declares (see the file comment); constructed directly
/// only for names known at run time (pipeline passes).  \p Name must
/// outlive the span; \p Timer caches its `<Name>_ns` timer per call site,
/// else the timer is looked up by name.
class Span {
public:
  Span(std::string_view Name, stats::CachedTimer &Timer);
  explicit Span(std::string_view Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a trace argument (an integer or a string), rendered when
  /// the span closes; a no-op unless the span is being traced.
  template <typename T> void arg(const char *Key, T &&Value) {
    if (Tracing)
      Args.emplace_back(Key, std::forward<T>(Value));
  }

private:
  void open(Session &S, stats::Timer *T);

  std::string_view Name;
  prof::Profiler *Prof = nullptr;
  stats::Timer *Timer = nullptr;
  std::chrono::steady_clock::time_point Start;
  bool Tracing = false;
  uint64_t StartUs = 0;
  std::vector<trace::Arg> Args;
};

/// AM_SPAN under AM_DISABLE_STATS: no state, no effect.
struct NoSpan {
  template <typename T> void arg(const char *, const T &) {}
};

} // namespace am::telemetry

#ifndef AM_DISABLE_STATS
/// Opens span \p Name (a string literal) for the rest of the enclosing
/// scope as variable \p Var.
#define AM_SPAN(Var, Name)                                                     \
  static thread_local ::am::stats::CachedTimer Var##_ns{Name "_ns"};           \
  ::am::telemetry::Span Var(Name, Var##_ns)
#else // AM_DISABLE_STATS — the span does not exist at all.
#define AM_SPAN(Var, Name) [[maybe_unused]] ::am::telemetry::NoSpan Var
#endif

#endif // AM_SUPPORT_TELEMETRY_H
