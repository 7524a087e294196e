//===- support/History.h - Longitudinal run-history store ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `amhist-v1` JSONL run-history store: an append-only file where
/// each line is one attributable run of the measurement tools.  Where
/// the event log (support/EventLog.h) is the raw record of one corpus
/// run and the aggregate (support/Aggregate.h) its deterministic
/// summary, the history store is the *longitudinal* layer — the series
/// of runs across commits that `tools/amtrend` turns into time series,
/// changepoints and regression gates.
///
/// Every line is a self-contained object carrying its own
/// `"schema":"amhist-v1"` tag (no header line: append-only files grown
/// by many independent tool invocations have no single writer to own a
/// header).  An entry records who measured (machine fingerprint, git
/// commit, solver thread count), how fast the machine was at that
/// moment (the calibration spin, so normalized comparisons cancel
/// CPU-speed differences between hosts), the per-preset wall statistics
/// (median + MAD from ambench presets or per-corpus-group sums from
/// ambatch), the machine-independent counters, and — for fleet runs —
/// a digest of the amagg-v1 aggregate (job/status tallies, the FNV-1a
/// hash of the serialized aggregate, and the event-log reader's
/// skipped-line count).
///
/// The reader shares the event log's crash contract: a partial
/// (unterminated or unparseable) trailing line — the signature of a
/// killed appender — is skipped with a warning, never an error, and
/// malformed interior lines likewise.  Entries from concatenated or
/// interleaved histories may arrive out of chronological order;
/// sortByTime() merges them into one stable timeline.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_HISTORY_H
#define AM_SUPPORT_HISTORY_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace am::hist {

/// One preset's wall statistics inside an entry.  For ambench presets
/// WallNs is the MAD-filtered median of the timed reps and MadNs the
/// MAD of all samples; for ambatch corpus groups WallNs is the summed
/// job wall and MadNs the MAD of the per-job walls.  Work carries the
/// preset's machine-independent facts (instrs_in, jobs, ...).
struct PresetStat {
  uint64_t WallNs = 0;
  uint64_t MadNs = 0;
  std::vector<std::pair<std::string, uint64_t>> Work; ///< name-sorted
};

/// One attributable run.  Name/value vectors are kept name-sorted by
/// the producers so serialization is deterministic.
struct HistoryEntry {
  std::string Source;     ///< "ambench" | "ambatch".
  uint64_t TimeUnixMs = 0; ///< Wall-clock epoch of the run (ordering key).
  /// Machine fingerprint + attribution.
  std::string Host;
  std::string Cpu;
  std::string Compiler;
  std::string GitSha;          ///< From AM_GIT_SHA (env or build), or "unknown".
  uint64_t HwThreads = 0;      ///< std::thread::hardware_concurrency().
  uint64_t SolverThreads = 0;  ///< threads::globalThreadCount() at run time.
  /// The calibration spin median in ns: how slow this machine was when
  /// the entry was recorded.  Preset walls divide by this to become
  /// machine-neutral normalized values.
  uint64_t CalibNs = 0;
  /// Per-preset wall statistics, name-sorted.
  std::vector<std::pair<std::string, PresetStat>> Presets;
  /// Machine-independent counters (ambatch: aggregate sums), name-sorted.
  std::vector<std::pair<std::string, uint64_t>> Counters;
  /// The fleet-aggregate digest; present only for ambatch entries.
  bool HasAggregate = false;
  uint64_t AggJobs = 0;
  std::string AggHash; ///< hex16(fnv1a64(serialized amagg-v1 JSON)).
  uint64_t AggSkippedLines = 0; ///< The aggregate's skipped_lines (now always 0).
  std::vector<std::pair<std::string, uint64_t>> AggStatuses; ///< name-sorted
};

/// Serializes \p E as one amhist-v1 line (no trailing newline).
/// Deterministic given the entry: fixed key order, producers keep the
/// vectors name-sorted.
void appendHistoryJson(std::string &Out, const HistoryEntry &E);

/// Appends \p E to \p Path (created if absent) as one flushed line, so
/// a killed appender loses at most the entry being written.  False with
/// \p Error on open/write failure.
bool appendHistoryFile(const std::string &Path, const HistoryEntry &E,
                       std::string *Error = nullptr);

/// A parsed history.
struct HistoryFile {
  std::vector<HistoryEntry> Entries;
  /// Malformed or truncated lines skipped while reading (the warnings
  /// name each one).
  uint64_t SkippedLines = 0;
  std::vector<std::string> Warnings;
};

/// Reads an amhist-v1 stream.  A partial trailing line is skipped with
/// a warning, malformed interior lines likewise.  False only when the
/// first well-formed line announces a different schema (the file is
/// something else entirely).  An empty stream is a valid empty history.
bool readHistory(std::istream &In, HistoryFile &Out);

/// readHistory over a file path; false with \p Error on open failure or
/// schema mismatch.
bool readHistoryFile(const std::string &Path, HistoryFile &Out,
                     std::string *Error = nullptr);

/// Stable-sorts entries by TimeUnixMs (ties keep file order), merging
/// out-of-order appends from concatenated histories into one timeline.
void sortByTime(HistoryFile &H);

/// The attribution commit: $AM_GIT_SHA when set and non-empty, else the
/// AM_GIT_SHA build definition when the build provided one, else
/// "unknown".
std::string gitSha();

/// This machine's host name ("unknown" when unavailable).
std::string hostName();

/// This machine's CPU model string ("unknown" when unavailable).
std::string cpuModel();

/// Fills \p E's attribution fields from this process: wall-clock epoch,
/// host, CPU model, compiler, git commit, hardware thread count.
/// Source, SolverThreads, CalibNs and the measurements stay with the
/// caller.
void stampFingerprint(HistoryEntry &E);

/// The fixed pure-integer xorshift spin the calibration preset times:
/// its runtime depends only on scalar integer throughput, so dividing
/// preset walls by its duration cancels most of the raw CPU-speed
/// difference between machines.  Returns the accumulator so the loop
/// cannot be optimized away.
uint64_t calibrationSpin(uint64_t Iters);

/// Times calibrationSpin(Iters) \p Reps times and returns the median
/// duration in ns — the standalone calibration measurement for tools
/// (ambatch) that do not run the full benchmark harness.
uint64_t measureCalibrationSpin(unsigned Reps = 3,
                                uint64_t Iters = 20'000'000);

} // namespace am::hist

#endif // AM_SUPPORT_HISTORY_H
