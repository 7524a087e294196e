//===- support/EventLog.cpp - Streaming fleet event log ------------------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/EventLog.h"
#include "support/Json.h"

#include <cstdio>
#include <ostream>

using namespace am;
using namespace am::fleet;

uint64_t fleet::fnv1a64(const std::string &Text) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string fleet::hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

void fleet::appendEventJson(std::string &Out, const JobEvent &E) {
  json::Writer W(Out);
  W.beginObject();
  W.key("index").value(E.Index);
  W.key("name").value(E.Name);
  W.key("hash").value(E.Hash);
  W.key("preset").value(E.Preset);
  W.key("status").value(E.Status);
  if (!E.Error.empty())
    W.key("error").value(E.Error);
  W.key("wall_ns").value(E.WallNs);
  W.key("rollbacks").value(E.Rollbacks);
  W.key("limits_hit").value(E.LimitsHit);
  W.key("blocks_before").value(E.BlocksBefore);
  W.key("blocks_after").value(E.BlocksAfter);
  W.key("instrs_before").value(E.InstrsBefore);
  W.key("instrs_after").value(E.InstrsAfter);
  W.key("phases").beginObject();
  for (const auto &[Name, Ns] : E.Phases)
    W.key(Name).value(Ns);
  W.endObject();
  W.key("counters").beginObject();
  for (const auto &[Name, V] : E.Counters)
    W.key(Name).value(V);
  W.endObject();
  W.key("remarks").beginObject();
  for (const auto &[Kind, N] : E.RemarkKinds)
    W.key(Kind).value(N);
  W.endObject();
  W.endObject();
}

void EventLogWriter::writeHeader(const std::string &PassSpec, uint64_t Jobs) {
  std::string Line;
  json::Writer W(Line);
  W.beginObject();
  W.key("schema").value("amevents-v1");
  W.key("passes").value(PassSpec);
  W.key("jobs").value(Jobs);
  W.endObject();
  std::lock_guard<std::mutex> Lock(Mu);
  OS << Line << '\n';
  OS.flush();
}

void EventLogWriter::append(const JobEvent &E) {
  // Serialize outside the lock; one write + flush per record keeps the
  // at-most-one-lost-record contract even when workers interleave.
  std::string Line;
  appendEventJson(Line, E);
  std::lock_guard<std::mutex> Lock(Mu);
  OS << Line << '\n';
  OS.flush();
}
