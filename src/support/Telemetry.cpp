//===- support/Telemetry.cpp - Per-job telemetry session -----------------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"
#include "support/Profiler.h"
#include "support/Remarks.h"
#include "support/Stats.h"

using namespace am;
using namespace am::telemetry;

namespace {

thread_local Session *CurrentSession = nullptr;

} // namespace

Session::Session()
    : Stats(std::make_unique<stats::Registry>()),
      Remarks(std::make_unique<remarks::Sink>()),
      Prof(std::make_unique<prof::Profiler>()) {}

Session::~Session() = default;

stats::Registry &Session::stats() { return *Stats; }
remarks::Sink &Session::remarks() { return *Remarks; }
prof::Profiler &Session::profiler() { return *Prof; }

Session &Session::current() {
  Session *S = CurrentSession;
  return S ? *S : processDefault();
}

Session &Session::processDefault() {
  // Leaked on purpose: instruments handed out through the default session
  // must outlive every static destructor that might still fire an update.
  static Session *S = new Session();
  return *S;
}

SessionScope::SessionScope(Session &S) : Prev(CurrentSession) {
  CurrentSession = &S;
}

SessionScope::~SessionScope() { CurrentSession = Prev; }

//===----------------------------------------------------------------------===//
// Span
//===----------------------------------------------------------------------===//

Span::Span(std::string_view Name, stats::CachedTimer &T) : Name(Name) {
  Session &S = Session::current();
  open(S, S.stats().enabled() ? &T.ref(S.stats()) : nullptr);
}

Span::Span(std::string_view Name) : Name(Name) {
  Session &S = Session::current();
  open(S, S.stats().enabled()
              ? &S.stats().timer(std::string(Name) + "_ns")
              : nullptr);
}

void Span::open(Session &S, stats::Timer *T) {
  prof::Profiler &P = prof::Profiler::of(S);
  if (P.enabled()) {
    Prof = &P;
    P.enter(Name);
  }
  if (S.tracing()) {
    Tracing = true;
    StartUs = trace::epochNowUs();
  }
  if (T) {
    Timer = T;
    Start = std::chrono::steady_clock::now();
  }
}

Span::~Span() {
  if (Timer)
    Timer->record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count()));
  // Spans that straddle a trace::stop() are dropped rather than
  // half-recorded.
  if (Tracing && trace::enabled())
    trace::complete(std::string(Name), StartUs, std::move(Args));
  if (Prof)
    Prof->leave();
}
