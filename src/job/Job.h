//===- job/Job.h - One optimization job, start to finish --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one job path of the tools.  `amopt` runs one job per invocation,
/// `ambatch` one per corpus program and `ambench`'s pipeline presets one
/// per repetition, and every job takes the same four steps:
///
///   1. parse the source, or adopt an already-built graph;
///   2. create a `telemetry::Session` with the sinks the request switches
///      on (profiler, tracing, remarks, flight recorder);
///   3. run the pipeline (or, for `VerifyRemarks`, the remark replay);
///   4. collect the status, exit code, "[name hash]" diagnostics,
///      counters, root profiler phases and remark kinds.
///
/// The session outlives the call (JobResult::Telemetry): amopt times its
/// emission there and dumps the registry, remarks and profile from it.
///
//===----------------------------------------------------------------------===//

#ifndef AM_JOB_JOB_H
#define AM_JOB_JOB_H

#include "ir/FlowGraph.h"
#include "report/Recorder.h"
#include "support/Telemetry.h"
#include "transform/Pipeline.h"
#include "verify/RemarkVerifier.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace am {

/// What to run and what to observe.
struct JobRequest {
  /// Names the program in diagnostics (file path, "<stdin>", job name).
  std::string Name;
  /// Program text in either front-end syntax, unless Graph is set.
  std::string Source;
  std::optional<FlowGraph> Graph;
  /// Pass pipeline; empty parses only.
  std::string Passes = "uniform";
  /// Guarded mode, IR verification and limits (Telemetry is ignored).
  PipelineOptions Pipeline;
  /// Session sinks to switch on.
  bool Profile = false;
  bool Trace = false;
  bool Remarks = false;
  /// Caller-owned flight recorder; snapshots "input" and "final".
  report::RecorderSession *Recorder = nullptr;
  /// Replay the uniform pipeline's remarks (verify/RemarkVerifier.h)
  /// instead of running Passes, which must be "uniform".
  bool VerifyRemarks = false;
};

/// How the job ended, with everything the front ends report.
struct JobResult {
  std::unique_ptr<telemetry::Session> Telemetry;
  /// "ok", "rolled_back", "limits" or "error".
  std::string Status = "ok";
  /// 0 ok, 2 parse or input-graph error, 3 rollback or IR-verification
  /// failure, 4 limits.
  int ExitCode = 0;
  /// For "error": the parse or pipeline message.
  std::string Error;
  /// "[name hash8] pass 'p' rolled back: ...", "[name hash8] <limits>",
  /// "[name hash8] pipeline error: ...", "[name] parse error: ...".
  std::vector<std::string> Diags;
  /// hex16(fnv1a64(printGraph(Input))); empty after a parse error.
  std::string Hash;
  FlowGraph Input;
  /// The optimized program (Pipeline.Graph), pass log and records.
  PipelineResult Pipeline;
  /// Set only for VerifyRemarks.
  RemarkVerifyReport RemarkCheck;
  /// Registry counters (name-sorted), root profiler phases (name, wall
  /// ns) and the remark kinds that fired (kind, count).
  std::vector<std::pair<std::string, uint64_t>> Counters, Phases,
      RemarkKinds;
};

/// Runs one job; see the file comment.
JobResult runJob(JobRequest Req);

} // namespace am

#endif // AM_JOB_JOB_H
