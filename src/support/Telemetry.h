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
/// What stays process-wide on purpose: the Chrome tracer (one timeline
/// per process is what trace viewers expect; its clock epoch is shared
/// with the profiler via trace::epochNowUs) and the two cumulative
/// allocation counters (operator new has no session context).
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_TELEMETRY_H
#define AM_SUPPORT_TELEMETRY_H

#include <cstdint>
#include <memory>

namespace am::stats {
class Registry;
} // namespace am::stats
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

} // namespace am::telemetry

#endif // AM_SUPPORT_TELEMETRY_H
