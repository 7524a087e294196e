//===- job/Job.cpp - One optimization job, start to finish ---------------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "job/Job.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "parser/Parser.h"
#include "report/Recorder.h"
#include "support/EventLog.h"
#include "support/Profiler.h"
#include "support/Remarks.h"

using namespace am;

namespace {

/// Steps 1 and 3 and the outcome, under the job's session.
void parseAndRun(JobRequest &Req, JobResult &R) {
  std::string ParseError;
  {
    AM_SPAN(Span, "parse");
    if (Req.Graph) {
      R.Input = std::move(*Req.Graph);
    } else {
      ParseResult P = parseProgram(Req.Source);
      if (P.ok())
        R.Input = std::move(P.Graph);
      ParseError = P.Error;
    }
  }
  if (!ParseError.empty()) {
    R.Status = "error";
    R.ExitCode = 2;
    R.Error = ParseError;
    R.Diags.push_back("[" + Req.Name + "] parse error: " + ParseError);
    return;
  }
  R.Hash = fleet::hex16(fleet::fnv1a64(printGraph(R.Input)));
  if (Req.Passes.empty())
    return;

  // Number the input up front so every original occurrence has a stable
  // id before any pass observes it.  The remark replay numbers its own
  // copy after clearing the sink.
  if (Req.Remarks && !Req.VerifyRemarks)
    ensureInstrIds(R.Input);
  if (Req.Recorder) {
    Req.Recorder->install();
    Req.Recorder->snapshot(R.Input, "input");
  }
  PipelineResult &P = R.Pipeline;
  if (Req.VerifyRemarks) {
    R.RemarkCheck = verifyUniformRemarks(R.Input);
    P.Graph = std::move(R.RemarkCheck.Output);
  } else {
    P = runPipeline(R.Input, Req.Passes, Req.Pipeline);
  }
  if (Req.Recorder) {
    Req.Recorder->snapshot(P.Graph, "final");
    Req.Recorder->uninstall();
  }

  std::string Tag = "[" + Req.Name + " " + R.Hash.substr(0, 8) + "]";
  if (!P.ok() && !P.LimitsExhausted) {
    R.Status = "error";
    R.Error = P.Diag.empty() ? P.Error : P.Diag.render();
    // Nothing ran on a bad input graph; a --verify-ir violation stops
    // after the pass that caused it.
    R.ExitCode = P.Records.empty() ? 2 : 3;
    R.Diags.push_back(Tag + " pipeline error: " + R.Error);
    return;
  }
  for (const PassRecord &Rec : P.Records)
    if (Rec.Status == PassStatus::RolledBack)
      R.Diags.push_back(Tag + " pass '" + Rec.Name +
                        "' rolled back: " + Rec.Violation);
  if (P.LimitsExhausted) {
    R.Status = "limits";
    R.ExitCode = 4;
    R.Diags.push_back(Tag + " " + P.Diag.render());
  } else if (P.RollbackCount != 0) {
    R.Status = "rolled_back";
    R.ExitCode = 3;
  }
}

} // namespace

JobResult am::runJob(JobRequest Req) {
  JobResult R;
  R.Telemetry = std::make_unique<telemetry::Session>();
  telemetry::Session &S = *R.Telemetry;
  telemetry::SessionScope Scope(S);
  S.profiler().setEnabled(Req.Profile);
  S.setTracing(Req.Trace);
  S.remarks().setEnabled(Req.Remarks);
  parseAndRun(Req, R);

  // Step 4: the session's readings.
  R.Counters = S.stats().counterEntries();
  const prof::Profiler &Prof = S.profiler();
  for (uint32_t Child : Prof.node(prof::Profiler::RootId).Children)
    R.Phases.emplace_back(Prof.node(Child).Name, Prof.node(Child).WallNs);
  static const remarks::Kind AllKinds[] = {
      remarks::Kind::Decompose,  remarks::Kind::Hoist,
      remarks::Kind::Eliminate,  remarks::Kind::SinkInit,
      remarks::Kind::DeleteInit, remarks::Kind::Reconstruct,
      remarks::Kind::Blocked,    remarks::Kind::Rollback};
  for (remarks::Kind K : AllKinds)
    if (uint64_t N = S.remarks().countKind(K))
      R.RemarkKinds.emplace_back(remarks::kindName(K), N);
  return R;
}
