//===- report/Recorder.h - Flight recorder for the AM pipeline -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An opt-in flight recorder for the optimizer: while a RecorderSession is
/// installed, the pipeline snapshots the program after initialization,
/// after every rae/aht round of the AM fixpoint and after the final flush,
/// captures the per-block predicate vectors of the paper's Tables 1-3 at
/// each analysis run, and keeps one record per dataflow solve (via the
/// dfa solve observer).  The session is the data model behind
/// `amopt --report=out.html` / `--facts=out.json` (see HtmlReport.h).
///
/// Cost model mirrors support/Stats.h and support/Remarks.h: every hook in
/// the transforms is `if (RecorderSession *S = RecorderSession::current())`
/// — one relaxed atomic load when recording is off.  Recording never
/// mutates the graph, so optimized output is byte-identical with a session
/// installed (tests/report_test.cpp locks this in).
///
/// Snapshots are structure-shared: instruction text is interned once per
/// distinct rendering, so a snapshot is a vector of (stable id, text
/// index) pairs per block — cheap even for per-round captures.  Diffs
/// between consecutive snapshots are computed on demand, keyed on the
/// stable Instr::Id (see InstrNumbering.h): an id present only in the new
/// snapshot was inserted, only in the old one deleted, in both at a
/// different position moved, and with different text rewritten in place.
///
/// Determinism contract (tests/report_test.cpp): two recordings of the
/// same run produce byte-identical facts JSON.  Counters are stored as
/// deltas from the session's install baseline, solve serials are
/// normalized relative to the session's first observed serial at JSON
/// emission, and nothing time- or address-dependent is captured.
///
//===----------------------------------------------------------------------===//

#ifndef AM_REPORT_RECORDER_H
#define AM_REPORT_RECORDER_H

#include "dfa/Dataflow.h"
#include "ir/FlowGraph.h"
#include "support/Remarks.h"
#include "support/StringInterner.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace am {
class RedundancyAnalysis;
class HoistabilityAnalysis;
class FlushAnalysis;
class AssignPatternTable;
} // namespace am

namespace am::telemetry {
class Session;
} // namespace am::telemetry

namespace am::report {

/// One instruction of a snapshot: its stable provenance id (0 when the
/// run assigned none) and its rendered text, interned session-wide.
struct InstrSnap {
  uint32_t Id = 0;
  uint32_t Text = 0;
};

/// One basic block of a snapshot.
struct BlockSnap {
  std::vector<InstrSnap> Instrs;
  std::vector<uint32_t> Succs;
  bool Synthetic = false;
};

/// The program at one pipeline point.
struct Snapshot {
  /// Pipeline point: "input", "split", "init", "rae", "aht", "flush",
  /// "final", or a pass name for generic pipelines.
  std::string Label;
  /// AM fixpoint round (1-based) for "rae"/"aht"; 0 elsewhere.
  uint32_t Round = 0;
  std::vector<BlockSnap> Blocks;
  uint32_t StartBlock = 0;
  uint32_t EndBlock = 0;
  /// Cumulative counter deltas since session install, aligned with
  /// counterNames().  Empty when counters were unavailable (stats
  /// compiled out or disabled at runtime) — HasCounters distinguishes
  /// "zero work" from "not measured".
  std::vector<uint64_t> Counters;
  bool HasCounters = false;

  size_t numInstrs() const {
    size_t N = 0;
    for (const BlockSnap &B : Blocks)
      N += B.Instrs.size();
    return N;
  }
};

/// Structural diff between two snapshots, keyed on stable instruction
/// ids.  Instructions without an id (recording without remark collection)
/// are only counted.
struct SnapshotDiff {
  struct Pos {
    uint32_t Id = 0;
    uint32_t Block = 0;
    uint32_t Index = 0;
  };
  struct Move {
    uint32_t Id = 0;
    uint32_t FromBlock = 0, FromIndex = 0;
    uint32_t ToBlock = 0, ToIndex = 0;
  };
  struct Rewrite {
    uint32_t Id = 0;
    uint32_t Block = 0, Index = 0;
    uint32_t OldText = 0, NewText = 0; ///< Interned text indices.
  };
  std::vector<Pos> Inserted;    ///< Present only in the newer snapshot.
  std::vector<Pos> Deleted;     ///< Present only in the older snapshot.
  std::vector<Move> Moved;      ///< Different (block, index) across the two.
  std::vector<Rewrite> Rewritten; ///< Same id, different text (in place or
                                  ///< combined with a move).
  size_t UnkeyedFrom = 0, UnkeyedTo = 0; ///< Id==0 instructions per side.

  bool empty() const {
    return Inserted.empty() && Deleted.empty() && Moved.empty() &&
           Rewritten.empty();
  }
};

/// The per-block predicate vectors of one analysis run (Tables 1-3).
/// Bit vectors render as '0'/'1' strings, bit 0 first, over Universe.
struct FactTable {
  /// "redundancy" (Table 2), "hoistability" (Table 1), "delayability" or
  /// "usability" (Table 3).
  std::string Analysis;
  std::string Pass;  ///< "rae", "aht" or "flush".
  uint32_t Round = 0;
  uint64_t Solve = 0; ///< Raw solve serial; normalized at JSON emission.
  /// The pattern universe the bits range over, e.g. "h1 := c + d" (or
  /// "h1" for the flush analyses' temporary universe), interned.
  std::vector<uint32_t> Universe;
  struct Row {
    uint32_t Block = 0;
    std::string Entry, Exit;
  };
  std::vector<Row> Rows; ///< One per block, in block order.
  /// Named additional per-block vectors (LOC-BLOCKED, LOC-HOISTABLE,
  /// N-INSERT, X-INSERT), in the same block order as Rows.
  struct Extra {
    std::string Name;
    std::vector<std::string> PerBlock;
  };
  std::vector<Extra> Extras;
};

/// One dataflow solve observed through the dfa solve observer, for the
/// convergence panel.  Mirrors am::SolveInfo plus the pipeline position.
struct SolveRecord {
  uint64_t Serial = 0;
  size_t Bits = 0;
  size_t Blocks = 0;
  uint64_t BlocksProcessed = 0;
  size_t DirtyClosure = 0;
  uint8_t Path = 0; ///< Matches SolveInfo::Path.
  bool Forward = true;
  std::string Label; ///< Label of the pipeline point active at the solve.
  uint32_t Round = 0;
};

/// One recording of one pipeline run.  Not thread-safe; the optimizer
/// pipeline is single-threaded.  install()/uninstall() make the session
/// visible to the transform hooks via current().
class RecorderSession {
public:
  RecorderSession();
  ~RecorderSession();
  RecorderSession(const RecorderSession &) = delete;
  RecorderSession &operator=(const RecorderSession &) = delete;

  /// Attaches this recorder to the calling thread's telemetry session
  /// (and registers the dfa solve observer).  At most one recorder may be
  /// attached to a session at a time.
  void install();
  void uninstall();

  /// The recorder attached to the calling thread's telemetry session, or
  /// nullptr — two thread-local reads, so the hooks in the transforms are
  /// cheap when recording is off.
  static RecorderSession *current();

  /// Runtime switch for counter capture (amopt turns it off under
  /// AM_DISABLE_STATS in the environment so reports stay deterministic
  /// against a disabled registry).
  void setCaptureCounters(bool On) { CaptureCounters = On; }

  /// AM fixpoint round context, set by the fixpoint driver so the
  /// analysis capture hooks can stamp their tables (mirrors
  /// remarks::Sink::setRound, which is unavailable under
  /// AM_DISABLE_STATS).
  void setRound(uint32_t R) { CurrentRound = R; }
  uint32_t round() const { return CurrentRound; }

  //===------------------------------------------------------------------===//
  // Capture hooks (called by the transforms; no-ops are the callers'
  // responsibility via current()).
  //===------------------------------------------------------------------===//

  /// Records the program as it stands.  \p Label/\p Round as in Snapshot.
  /// Consecutive identical snapshots are still recorded — the timeline
  /// shows rounds that changed nothing.
  void snapshot(const FlowGraph &G, std::string Label, uint32_t Round = 0);

  /// Table 2 facts of one rae run.
  void captureRedundancy(const FlowGraph &G, const AssignPatternTable &Pats,
                         const RedundancyAnalysis &A, uint32_t Round);

  /// Table 1 facts (plus LOC-* and the insertion predicates) of one aht
  /// run.
  void captureHoistability(const FlowGraph &G, const AssignPatternTable &Pats,
                           const HoistabilityAnalysis &A, uint32_t Round);

  /// Table 3 facts (delayability + usability) of the final flush.
  void captureFlush(const FlowGraph &G, const FlushAnalysis &A);

  //===------------------------------------------------------------------===//
  // Read side
  //===------------------------------------------------------------------===//

  const std::vector<Snapshot> &snapshots() const { return Snapshots; }
  const std::vector<FactTable> &facts() const { return Facts; }
  const std::vector<SolveRecord> &solves() const { return Solves; }
  const std::string &text(uint32_t Idx) const { return Strings.str(Idx); }

  /// Diff between snapshots \p FromIdx and \p ToIdx (usually consecutive).
  SnapshotDiff diff(size_t FromIdx, size_t ToIdx) const;

  /// The fixed counter set a snapshot captures (machine-independent
  /// counts only — never timers).
  static const std::vector<std::string> &counterNames();

  /// True if any instruction of any snapshot carries \p Id.
  bool resolvesId(uint32_t Id) const;

  /// Raw-to-normalized solve-serial mapping (1.. in first-observation
  /// order over facts, then solves, then \p Remarks).  Both the JSON and
  /// the HTML renderings apply it, so the two agree and neither leaks the
  /// process-wide solve counter into the output.
  std::unordered_map<uint64_t, uint64_t>
  serialMap(const std::vector<remarks::Remark> *Remarks = nullptr) const;

  /// The session's facts/snapshots/solves as one JSON object (the
  /// `--facts=out.json` payload).  \p Remarks, when non-null, is embedded
  /// with the same keys the remark sink's own dump uses, but with solve
  /// serials normalized alongside the session's — the whole document is
  /// deterministic across runs despite the process-wide solve counter.
  std::string
  toJsonString(const std::vector<remarks::Remark> *Remarks = nullptr) const;

private:
  static void onSolve(const SolveInfo &Info, void *Ctx);
  uint32_t intern(const std::string &S) { return Strings.intern(S); }
  void captureCounters(Snapshot &S) const;
  void attributeSolve(uint64_t Serial, const char *Pass, uint32_t Round);

  /// The telemetry session this recorder is attached to (install()
  /// through uninstall()); null while detached.
  telemetry::Session *Attached = nullptr;

  StringInterner Strings;
  std::vector<Snapshot> Snapshots;
  std::vector<FactTable> Facts;
  std::vector<SolveRecord> Solves;
  std::vector<uint64_t> CounterBase;
  bool CaptureCounters = true;
  bool Installed = false;
  uint32_t CurrentRound = 0;
};

} // namespace am::report

#endif // AM_REPORT_RECORDER_H
