//===- support/Trace.cpp - Structured Chrome-trace event tracer ----------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

using namespace am;
using namespace am::trace;

namespace {

struct Event {
  std::string Name;
  char Phase; // 'X' complete, 'i' instant
  uint64_t TsUs;
  uint64_t DurUs; // complete events only
  uint64_t Tid;
  std::vector<Arg> Args;
};

struct Collector {
  std::mutex Mu;
  std::vector<Event> Events;
  std::chrono::steady_clock::time_point Origin;
};

// Leaked on purpose so spans closing during static destruction stay safe.
Collector &collector() {
  static Collector *C = new Collector();
  return *C;
}

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - collector().Origin)
          .count());
}

void record(Event E) {
  Collector &C = collector();
  std::lock_guard<std::mutex> Lock(C.Mu);
  C.Events.push_back(std::move(E));
}

uint64_t currentTid() {
  return std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff;
}

void appendArgs(json::Writer &W, const std::vector<Arg> &Args) {
  W.key("args").beginObject();
  for (const Arg &A : Args) {
    W.key(A.Key);
    if (A.IsInt)
      W.value(A.Int);
    else
      W.value(A.Str);
  }
  W.endObject();
}

std::string renderJson(std::vector<Event> Events) {
  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.key("displayTimeUnit").value("ms");
  W.key("traceEvents").beginArray();
  for (const Event &E : Events) {
    W.beginObject();
    W.key("name").value(E.Name);
    W.key("ph").value(std::string(1, E.Phase));
    W.key("ts").value(E.TsUs);
    if (E.Phase == 'X')
      W.key("dur").value(E.DurUs);
    if (E.Phase == 'i')
      W.key("s").value("t"); // thread-scoped instant
    W.key("pid").value(uint64_t(1));
    W.key("tid").value(E.Tid);
    appendArgs(W, E.Args);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return Out;
}

} // namespace

bool trace::enabled() { return telemetry::Session::current().tracing(); }

uint64_t trace::epochNowUs() { return nowUs(); }

void trace::start() {
  Collector &C = collector();
  {
    std::lock_guard<std::mutex> Lock(C.Mu);
    C.Events.clear();
    C.Origin = std::chrono::steady_clock::now();
  }
  telemetry::Session::current().setTracing(true);
}

std::string trace::stopToJson() {
  telemetry::Session::current().setTracing(false);
  Collector &C = collector();
  std::vector<Event> Events;
  {
    std::lock_guard<std::mutex> Lock(C.Mu);
    Events.swap(C.Events);
  }
  return renderJson(std::move(Events));
}

bool trace::stopToFile(const std::string &Path) {
  std::string J = stopToJson();
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << J << "\n";
  return static_cast<bool>(Out);
}

void trace::instant(const char *Name, std::initializer_list<Arg> Args) {
  if (enabled())
    record({Name, 'i', nowUs(), 0, currentTid(), std::vector<Arg>(Args)});
}

void trace::complete(std::string Name, uint64_t StartUs,
                     std::vector<Arg> Args) {
  uint64_t EndUs = nowUs();
  // A start() inside the span moved the origin past its start.
  uint64_t DurUs = EndUs > StartUs ? EndUs - StartUs : 0;
  record({std::move(Name), 'X', StartUs, DurUs, currentTid(), std::move(Args)});
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

namespace {

// The path of the currently open session, consulted by the atexit
// fallback.  Leaked (like the collector) so the fallback can run safely
// during static destruction.
std::mutex &sessionMu() {
  static std::mutex *M = new std::mutex();
  return *M;
}
std::string *SessionPath = nullptr;

void flushSessionAtExit() {
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(sessionMu());
    if (SessionPath)
      Path = *SessionPath;
  }
  // Only fires when a session is still open: close() clears the path.
  if (!Path.empty())
    trace::stopToFile(Path);
}

} // namespace

Session::Session(std::string P) : Path(std::move(P)), Opened(true) {
  {
    std::lock_guard<std::mutex> Lock(sessionMu());
    if (!SessionPath)
      SessionPath = new std::string();
    *SessionPath = Path;
    static bool AtexitRegistered = [] {
      std::atexit(flushSessionAtExit);
      return true;
    }();
    (void)AtexitRegistered;
  }
  start();
}

bool Session::close() {
  if (!Opened)
    return false;
  Opened = false;
  {
    std::lock_guard<std::mutex> Lock(sessionMu());
    if (SessionPath)
      SessionPath->clear();
  }
  return stopToFile(Path);
}

Session::~Session() {
  if (Opened)
    close();
}

