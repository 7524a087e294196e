//===- support/Trace.h - Structured Chrome-trace event tracer --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structured event tracer that renders to the Chrome `trace_event`
/// JSON format, so a run of the optimizer can be opened in
/// `about:tracing` or https://ui.perfetto.dev and inspected span by span:
/// one span per pipeline pass, nested spans per dataflow solve, instant
/// events per AM fixpoint round.
///
/// Whether a span or instant is recorded is a switch of the calling
/// thread's telemetry session (telemetry::Session::tracing, off by
/// default; one relaxed atomic load per call site).  The event collector,
/// its clock origin and the atexit flush below are process-wide: one
/// timeline per process is what trace viewers expect.  Turn tracing on
/// for the current session around a region:
///
/// \code
///   am::trace::start();
///   ...run passes...
///   std::string J = am::trace::stopToJson();   // or stopToFile(path)
/// \endcode
///
/// Inside instrumented code, spans come from AM_SPAN (support/Telemetry.h),
/// which feeds the profiler and the stats timer from the same scope:
///
/// \code
///   AM_SPAN(Span, "dfa.solve");
///   Span.arg("bits", NumBits);      // attached when the span closes
///   ...
///   am::trace::instant("am.round", {{"eliminated", N}});
/// \endcode
///
/// Events carry steady-clock microsecond timestamps relative to
/// `start()`, a constant pid and the calling thread's id, which is
/// exactly what the Chrome viewer expects.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_TRACE_H
#define AM_SUPPORT_TRACE_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace am::trace {

/// One key/value argument rendered into a span's "args" object.
struct Arg {
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  Arg(const char *Key, T Value)
      : Key(Key), Int(static_cast<int64_t>(Value)), IsInt(true) {}
  Arg(const char *Key, std::string Value)
      : Key(Key), Str(std::move(Value)), IsInt(false) {}
  Arg(const char *Key, const char *Value)
      : Key(Key), Str(Value), IsInt(false) {}

  const char *Key;
  int64_t Int = 0;
  std::string Str;
  bool IsInt;
};

/// True while the calling thread's telemetry session records trace
/// events.  One relaxed atomic load.
bool enabled();

/// Microseconds since the tracer's timestamp origin (the most recent
/// `start()`).  The phase profiler (support/Profiler.h) stamps its nodes
/// with this clock, so a `--profile` tree and a `--trace` file from the
/// same run align span for span.  Before the first start() the origin is
/// the steady clock's own epoch; offsets are then only self-consistent,
/// not trace-aligned.
uint64_t epochNowUs();

/// Clears any previously collected events, resets the timestamp origin
/// and switches tracing on for the calling thread's telemetry session.
void start();

/// Switches tracing off for the calling thread's session and renders
/// everything collected as a Chrome trace_event JSON object:
/// {"traceEvents": [...], "displayTimeUnit": "ms"}.
std::string stopToJson();

/// As stopToJson, writing the JSON to \p Path.  False on I/O error.
bool stopToFile(const std::string &Path);

/// Emits a zero-duration instant event (phase "i") when enabled.
void instant(const char *Name, std::initializer_list<Arg> Args = {});

/// Records a complete event ("ph":"X") named \p Name that started at
/// \p StartUs (an epochNowUs() reading) and ends now.  Called by the
/// telemetry span (AM_SPAN), which checks its session's tracing switch.
void complete(std::string Name, uint64_t StartUs, std::vector<Arg> Args);

/// RAII trace file: construction calls start(), destruction (or an explicit
/// close()) stops and writes the file.  The session also registers a one-time
/// `std::atexit` fallback that flushes the registered file if the process exits
/// while a session is still open — so a pipeline that dies mid-run via exit()
/// (a failed assertion message path, an early fatal error) still leaves its
/// trace on disk instead of losing everything buffered.
class Session {
public:
  explicit Session(std::string Path);
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Stops collection and writes the file now.  Idempotent; returns
  /// false on I/O error (or when already closed).
  bool close();

  /// True until close() (or destruction).
  bool open() const { return Opened; }

private:
  std::string Path;
  bool Opened = false;
};

} // namespace am::trace

#endif // AM_SUPPORT_TRACE_H
