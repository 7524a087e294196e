//===- support/EventLog.h - Streaming fleet event log ----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `amevents-v1` JSONL event log of a corpus run (tools/ambatch): one
/// header line, then one self-contained JSON record per optimization job
/// — program identity (name + FNV-1a hash of the canonical text), exit
/// status, wall and per-phase timings from the job's session profiler,
/// the machine-independent stats counters, and rollback/limit/remark
/// summaries.  Records are appended under a mutex and flushed per line,
/// so a run killed mid-corpus loses at most the record being written.
/// tools/batch_check.py is the log's reader.
///
/// The event log is the *raw* layer: it contains wall-clock times and is
/// therefore machine- and run-specific.  The deterministic cross-job
/// summary lives one layer up in support/Aggregate.h, which consumes
/// these records and deliberately drops everything time-like.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_EVENTLOG_H
#define AM_SUPPORT_EVENTLOG_H

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace am::fleet {

/// FNV-1a over \p Text — the program identity hash.  Stable across
/// platforms and runs; two programs with the same canonical
/// `printGraph` text collide by construction (they are the same input).
uint64_t fnv1a64(const std::string &Text);

/// \p V as 16 lowercase hex digits (the textual form of the hash —
/// stored as a string so 64-bit identities survive JSON double readers).
std::string hex16(uint64_t V);

/// One job's record.  Name/value vectors are kept name-sorted by the
/// producers (stats::Registry::counterEntries is; phases follow the
/// profiler's deterministic first-entry order).
struct JobEvent {
  uint64_t Index = 0;      ///< Position in corpus order.
  std::string Name;        ///< File stem or "gen:<seed>".
  std::string Hash;        ///< hex16(fnv1a64(canonical text)).
  std::string Preset;      ///< Corpus group: "examples", "gen", "file".
  std::string Status;      ///< "ok" | "rolled_back" | "limits" | "error".
  std::string Error;       ///< Parse/pipeline error text when Status=="error".
  uint64_t WallNs = 0;     ///< Whole-job wall time.
  uint64_t Rollbacks = 0;  ///< Passes rolled back by the guards.
  bool LimitsHit = false;  ///< A PipelineLimits budget stopped the run.
  uint64_t BlocksBefore = 0, BlocksAfter = 0;
  uint64_t InstrsBefore = 0, InstrsAfter = 0;
  /// Top-level profiler phases (children of the session root): name ->
  /// inclusive wall ns.
  std::vector<std::pair<std::string, uint64_t>> Phases;
  /// Machine-independent stats counters of the job's session.
  std::vector<std::pair<std::string, uint64_t>> Counters;
  /// Remark kind -> count (only kinds that fired).
  std::vector<std::pair<std::string, uint64_t>> RemarkKinds;
};

/// Serializes \p E as one amevents-v1 record (no trailing newline).
void appendEventJson(std::string &Out, const JobEvent &E);

/// Streaming JSONL writer.  append() is thread-safe and flushes each
/// record, honoring the at-most-one-lost-record contract.
class EventLogWriter {
public:
  explicit EventLogWriter(std::ostream &OS) : OS(OS) {}

  /// The header line: {"schema":"amevents-v1","passes":...,"jobs":N}.
  void writeHeader(const std::string &PassSpec, uint64_t Jobs);

  void append(const JobEvent &E);

private:
  std::ostream &OS;
  std::mutex Mu;
};

} // namespace am::fleet

#endif // AM_SUPPORT_EVENTLOG_H
