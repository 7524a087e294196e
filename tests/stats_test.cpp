//===- tests/stats_test.cpp - Stats registry, JSON and tracing -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Remarks.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

using namespace am;
using namespace am::stats;

namespace am::test {
// Defined in stats_disabled_helper.cpp, which is compiled with
// -DAM_DISABLE_STATS.
void bumpCompiledOutStats();
bool compiledOutRemarksEnabled();
} // namespace am::test

//===----------------------------------------------------------------------===//
// Counters, gauges, timers
//===----------------------------------------------------------------------===//

TEST(Stats, CounterAccumulatesAndResets) {
  Counter &C = Registry::get().counter("test.counter_semantics");
  C.reset();
  EXPECT_EQ(C.get(), 0u);
  C.add(1);
  C.add(41);
  EXPECT_EQ(C.get(), 42u);
  C.reset();
  EXPECT_EQ(C.get(), 0u);
}

TEST(Stats, RegistryReturnsTheSameInstrumentForTheSameName) {
  Counter &A = Registry::get().counter("test.same_name");
  Counter &B = Registry::get().counter("test.same_name");
  EXPECT_EQ(&A, &B);
  A.reset();
  A.add(3);
  EXPECT_EQ(B.get(), 3u);
  // References stay valid (deque storage) as more instruments register.
  for (int Idx = 0; Idx < 100; ++Idx)
    Registry::get().counter("test.churn." + std::to_string(Idx));
  EXPECT_EQ(A.get(), 3u);
}

TEST(Stats, MacrosResolveOnceAndIncrement) {
  AM_STAT_COUNTER(Ctr, "test.macro_counter");
  Ctr.reset();
  for (int Idx = 0; Idx < 10; ++Idx)
    AM_STAT_INC(Ctr);
  AM_STAT_ADD(Ctr, 32);
  EXPECT_EQ(Registry::get().counterValue("test.macro_counter"), 42u);
}

TEST(Stats, GaugeIsLastWriteWins) {
  AM_STAT_GAUGE(Gauge, "test.gauge");
  AM_STAT_SET(Gauge, 17);
  AM_STAT_SET(Gauge, -4);
  EXPECT_EQ(Registry::get().findGauge("test.gauge")->get(), -4);
}

TEST(Stats, TimerRecordsCountTotalMinMaxAndBuckets) {
  Timer &T = Registry::get().timer("test.timer_semantics");
  T.reset();
  T.record(100);  // log2 bucket 6
  T.record(1000); // log2 bucket 9
  T.record(10);   // log2 bucket 3
  EXPECT_EQ(T.count(), 3u);
  EXPECT_EQ(T.totalNs(), 1110u);
  EXPECT_EQ(T.minNs(), 10u);
  EXPECT_EQ(T.maxNs(), 1000u);
  EXPECT_EQ(T.bucket(6), 1u);
  EXPECT_EQ(T.bucket(9), 1u);
  EXPECT_EQ(T.bucket(3), 1u);
  T.reset();
  EXPECT_EQ(T.count(), 0u);
  EXPECT_EQ(T.minNs(), 0u); // empty timer reports 0, not UINT64_MAX
}

TEST(Stats, TimerScopeMeasuresElapsedTime) {
  Timer &T = Registry::get().timer("test.timer_scope_ns");
  T.reset();
  Registry::get().setEnabled(true);
  {
    AM_SPAN(Span, "test.timer_scope");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(T.count(), 1u);
  EXPECT_GE(T.totalNs(), 1000000u);
}

TEST(Stats, RuntimeDisabledTimerScopeIsANoOp) {
  Timer &T = Registry::get().timer("test.timer_disabled_ns");
  T.reset();
  Registry::get().setEnabled(false);
  {
    AM_SPAN(Span, "test.timer_disabled");
  }
  Registry::get().setEnabled(true);
  EXPECT_EQ(T.count(), 0u);
}

TEST(Stats, TimerPercentilesFromLog2Buckets) {
  Timer &T = Registry::get().timer("test.timer_percentiles");
  T.reset();
  EXPECT_EQ(T.percentileNs(0.5), 0u); // empty timer

  T.record(10);   // bucket 3: [8, 16)
  T.record(100);  // bucket 6: [64, 128)
  T.record(1000); // bucket 9: [512, 1024)
  // Nearest rank: p50 is the 2nd of 3 samples — bucket 6's midpoint.
  EXPECT_EQ(T.percentileNs(0.5), 96u);
  // p95 is the 3rd sample — bucket 9's midpoint.
  EXPECT_EQ(T.percentileNs(0.95), 768u);
  // Q=0 clamps to the first sample; Q=1 is the last.
  EXPECT_EQ(T.percentileNs(0.0), 12u);
  EXPECT_EQ(T.percentileNs(1.0), 768u);

  T.reset();
  T.record(0); // values 0 and 1 land in bucket 0: [0, 2)
  EXPECT_EQ(T.percentileNs(0.5), 0u); // one sample: its exact value
}

TEST(Stats, TimerPercentilesStayWithinMinMax) {
  Timer &T = Registry::get().timer("test.timer_percentile_range");
  // One sample reports itself, not its bucket's midpoint (a 1063 ms
  // sample used to read as 805 ms).
  T.reset();
  T.record(1063000000);
  for (double Q : {0.0, 0.5, 0.95, 1.0})
    EXPECT_EQ(T.percentileNs(Q), 1063000000u) << Q;

  // 64..70 all land in bucket [64, 128), whose midpoint 96 lies above
  // the largest sample: every percentile clamps to the max.
  T.reset();
  for (uint64_t Ns = 64; Ns <= 70; ++Ns)
    T.record(Ns);
  EXPECT_EQ(T.percentileNs(0.5), 70u);
  EXPECT_EQ(T.percentileNs(0.95), 70u);

  // 120..127: the midpoint lies below the smallest sample.
  T.reset();
  for (uint64_t Ns = 120; Ns <= 127; ++Ns)
    T.record(Ns);
  EXPECT_EQ(T.percentileNs(0.05), 120u);
  EXPECT_EQ(T.percentileNs(0.5), 120u);

  // Uniform 1..100: ranks fall in distinct buckets, all inside the range.
  T.reset();
  for (uint64_t Ns = 1; Ns <= 100; ++Ns)
    T.record(Ns);
  EXPECT_EQ(T.percentileNs(0.5), 48u);  // 50th sample, bucket [32, 64)
  EXPECT_EQ(T.percentileNs(0.95), 96u); // 95th sample, bucket [64, 128)
  EXPECT_EQ(T.percentileNs(1.0), 96u);
  EXPECT_EQ(T.percentileNs(0.0), 1u);
  for (int Pct = 0; Pct <= 100; ++Pct) {
    uint64_t P = T.percentileNs(Pct / 100.0);
    EXPECT_GE(P, T.minNs()) << Pct;
    EXPECT_LE(P, T.maxNs()) << Pct;
  }
}

TEST(Stats, DumpsCarryPercentiles) {
  Registry::get().resetAll();
  Timer &T = Registry::get().timer("test.percentile_dump");
  T.record(100);
  std::string J = Registry::get().dumpJsonString();
  std::string Error;
  EXPECT_TRUE(json::validate(J, &Error)) << Error;
  // A single sample: the percentiles are its exact value.
  EXPECT_NE(J.find("\"p50_ns\":100"), std::string::npos) << J;
  EXPECT_NE(J.find("\"p95_ns\":100"), std::string::npos) << J;
  std::ostringstream OS;
  Registry::get().dumpText(OS);
  EXPECT_NE(OS.str().find("p50 ~100 ns"), std::string::npos) << OS.str();
}

TEST(Stats, CompiledOutMacrosRegisterNothing) {
  am::test::bumpCompiledOutStats();
  EXPECT_EQ(Registry::get().findCounter("test.compiled_out_counter"),
            nullptr);
  EXPECT_EQ(Registry::get().findGauge("test.compiled_out_gauge"), nullptr);
  EXPECT_EQ(Registry::get().findTimer("test.compiled_out_timer_ns"), nullptr);
  EXPECT_EQ(Registry::get().counterValue("test.compiled_out_counter"), 0u);
}

TEST(Stats, CompiledOutRemarkMacrosAreInert) {
  // Even with the process-wide sink enabled, a TU built with
  // -DAM_DISABLE_STATS sees AM_REMARKS_ENABLED() == false.
  remarks::CollectionScope On;
  EXPECT_FALSE(am::test::compiledOutRemarksEnabled());
}

//===----------------------------------------------------------------------===//
// Dumps
//===----------------------------------------------------------------------===//

TEST(Stats, TextDumpListsInstrumentsAlphabetically) {
  Registry::get().counter("test.dump.b").reset();
  Registry::get().counter("test.dump.a").add(0);
  std::ostringstream OS;
  Registry::get().dumpText(OS);
  std::string Text = OS.str();
  size_t PosA = Text.find("test.dump.a");
  size_t PosB = Text.find("test.dump.b");
  ASSERT_NE(PosA, std::string::npos);
  ASSERT_NE(PosB, std::string::npos);
  EXPECT_LT(PosA, PosB);
}

TEST(Stats, JsonDumpIsValidAndRoundTripsValues) {
  Counter &C = Registry::get().counter("test.json.counter");
  C.reset();
  C.add(1234);
  Registry::get().timer("test.json.timer").record(512);
  std::string J = Registry::get().dumpJsonString();
  std::string Error;
  EXPECT_TRUE(json::validate(J, &Error)) << Error;
  // The dump carries the exact value and the timer sub-document.
  EXPECT_NE(J.find("\"test.json.counter\":1234"), std::string::npos) << J;
  EXPECT_NE(J.find("\"test.json.timer\""), std::string::npos);
  EXPECT_NE(J.find("\"log2_buckets\""), std::string::npos);
}

TEST(Stats, ResetAllZeroesEverything) {
  Counter &C = Registry::get().counter("test.resetall.counter");
  Timer &T = Registry::get().timer("test.resetall.timer");
  C.add(5);
  T.record(99);
  Registry::get().resetAll();
  EXPECT_EQ(C.get(), 0u);
  EXPECT_EQ(T.count(), 0u);
}

//===----------------------------------------------------------------------===//
// JSON writer / validator
//===----------------------------------------------------------------------===//

TEST(Json, WriterProducesValidNestedDocuments) {
  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.key("s").value("a \"quoted\"\nstring");
  W.key("n").value(int64_t(-7));
  W.key("u").value(uint64_t(18446744073709551615ull));
  W.key("d").value(1.5);
  W.key("b").value(true);
  W.key("arr").beginArray().value(int64_t(1)).value("two").endArray();
  W.key("nested").beginObject().key("empty").beginArray().endArray().endObject();
  W.endObject();
  std::string Error;
  EXPECT_TRUE(json::validate(Out, &Error)) << Error << "\n" << Out;
  EXPECT_NE(Out.find("\\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_NE(Out.find("18446744073709551615"), std::string::npos);
}

TEST(Json, EscapesControlCharacters) {
  // Note the split literal: "\x01b" would greedily parse as \x1b.
  std::string Q = json::quoted(std::string("a\x01" "b\tc"));
  EXPECT_EQ(Q, "\"a\\u0001b\\tc\"");
  EXPECT_TRUE(json::validate(Q));
}

TEST(Json, ValidatorAcceptsRfc8259Values) {
  for (const char *Good :
       {"{}", "[]", "null", "true", "-0.5e+10", "\"x\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u0041\"}", "  [1]  "})
    EXPECT_TRUE(json::validate(Good)) << Good;
}

TEST(Json, ValidatorRejectsMalformedInput) {
  for (const char *Bad :
       {"", "{", "}", "[1,]", "{\"a\"}", "{\"a\":}", "{a:1}", "01", "1.",
        "\"unterminated", "[1] trailing", "nul", "\"bad\\escape\""})
    EXPECT_FALSE(json::validate(Bad)) << Bad;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledByDefaultAndSpansAreInert) {
  ASSERT_FALSE(trace::enabled());
  {
    AM_SPAN(Span, "never.recorded");
    Span.arg("k", 1);
  }
  trace::start();
  std::string J = trace::stopToJson();
  EXPECT_EQ(J.find("never.recorded"), std::string::npos);
}

TEST(Trace, CollectsSpansAndInstantsAsChromeTraceJson) {
  trace::start();
  EXPECT_TRUE(trace::enabled());
  {
    AM_SPAN(Span, "test.span");
    Span.arg("bits", 64);
    Span.arg("mode", "round-robin");
    trace::instant("test.instant", {{"round", 3}});
  }
  std::string J = trace::stopToJson();
  EXPECT_FALSE(trace::enabled());

  std::string Error;
  EXPECT_TRUE(json::validate(J, &Error)) << Error << "\n" << J;
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"test.span\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"test.instant\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(J.find("\"bits\":64"), std::string::npos);
  EXPECT_NE(J.find("\"mode\":\"round-robin\""), std::string::npos);
  EXPECT_NE(J.find("\"round\":3"), std::string::npos);
}

TEST(Trace, StopToFileWritesTheJson) {
  trace::start();
  {
    AM_SPAN(Span, "test.file_span");
  }
  std::string Path = testing::TempDir() + "am_trace_test.json";
  ASSERT_TRUE(trace::stopToFile(Path));
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  EXPECT_TRUE(json::validate(Buf.str(), &Error)) << Error;
  EXPECT_NE(Buf.str().find("test.file_span"), std::string::npos);
}

TEST(Trace, StartClearsPreviousEvents) {
  trace::start();
  trace::instant("test.stale");
  trace::start(); // restart without stopping
  trace::instant("test.fresh");
  std::string J = trace::stopToJson();
  EXPECT_EQ(J.find("test.stale"), std::string::npos);
  EXPECT_NE(J.find("test.fresh"), std::string::npos);
}

TEST(Trace, SessionWritesFileOnClose) {
  std::string Path = testing::TempDir() + "am_trace_session.json";
  {
    trace::Session S(Path);
    EXPECT_TRUE(S.open());
    EXPECT_TRUE(trace::enabled());
    trace::instant("test.session_event");
    EXPECT_TRUE(S.close());
    EXPECT_FALSE(S.open());
    EXPECT_FALSE(trace::enabled());
    // close() is idempotent: a second call reports failure, not a
    // double write.
    EXPECT_FALSE(S.close());
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  EXPECT_TRUE(json::validate(Buf.str(), &Error)) << Error;
  EXPECT_NE(Buf.str().find("test.session_event"), std::string::npos);
}

TEST(Trace, SessionDestructorFlushes) {
  std::string Path = testing::TempDir() + "am_trace_session_dtor.json";
  {
    trace::Session S(Path);
    trace::instant("test.session_dtor_event");
  } // destructor closes and writes
  EXPECT_FALSE(trace::enabled());
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_NE(Buf.str().find("test.session_dtor_event"), std::string::npos);
}
