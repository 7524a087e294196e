//===- tools/amopt.cpp - Command-line optimizer driver ---------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// amopt — optimize a program written in either front-end syntax, with
// full observability into what the algorithm did.
//
//   amopt [--pass=uniform|am|lcm|bcm|restricted|cp|pde]
//         [--passes=p1,p2,...] [--dot] [--stats[=json]] [--trace=out.json]
//         [--profile=out.json]
//         [--remarks[=out.json]] [--explain=<var|instr-id>]
//         [--report=out.html] [--facts=out.json]
//         [--verify] [--verify-remarks]
//         [--guarded] [--verify-ir] [--limits=k=v,...] [--inject=class[:site]]
//         [--annotate=redundancy|hoist|flush|live] [FILE]
//
// Reads FILE (or stdin) containing a `program { ... }` or `graph { ... }`
// source, runs the selected passes (default: uniform EM & AM) as one job
// (job/Job.h), and prints the optimized program — or Graphviz DOT with
// --dot.  `--pass=P` is sugar for `--passes=P` (`--pass=pde` for
// `--passes=pde,simplify`).  With no FILE and a terminal on stdin,
// optimizes the paper's running example as a demo.
//
// Observability:
//   --stats        human-readable per-pass log + registry dump on stderr
//   --stats=json   one JSON object on stderr: {"input": .., "output": ..,
//                  "passes": [PassRecord...], "registry": {counters,
//                  gauges, timers}}
//   --trace=F      write a Chrome trace_event JSON file; open it in
//                  about:tracing or https://ui.perfetto.dev — one span
//                  per pass, nested spans per dataflow solve, instant
//                  events per AM fixpoint round.
//   --profile=F    write the hierarchical self-profile as JSON: a phase
//                  tree (parse, each pass, each analysis, each dataflow
//                  solve, emission) with wall time, call counts and
//                  allocation deltas per node, plus collapsed-stack lines
//                  for flamegraph tools.  The optimized output is
//                  byte-identical with or without profiling.
//   --remarks[=F]  collect optimization remarks: one typed record per
//                  decomposition, hoist, elimination, init sink/delete
//                  and reconstruction, with the justifying dataflow
//                  facts.  Written to F as JSON, or to stderr without
//                  =F.  Combined with --dot, instructions touched by
//                  remarks are annotated in the DOT output.
//   --explain=X    print the full provenance chain of an instruction
//                  (X = stable instruction id) or of every instruction
//                  related to a variable (X = variable name), instead
//                  of the optimized program.
//   --verify-remarks
//                  re-run the uniform pipeline with remark collection on
//                  and replay every remark's cited facts against fresh
//                  analyses; exit 3 if any justification fails.
//   --report=F     flight-record the run (per-phase/per-round IR
//                  snapshots, Table 1-3 fact tables, one record per
//                  dataflow solve) and render it as a single
//                  self-contained HTML file: timeline, side-by-side round
//                  diffs with remarks anchored on the exact instruction,
//                  per-block fact tables, convergence sparklines.
//   --facts=F      the same recording as machine-readable JSON.
//
// Robustness (docs/robustness.md):
//   --guarded      run the passes through the guarded pipeline: snapshot
//                  each pass's input, verify IR invariants and spot-check
//                  semantic equivalence afterwards, and roll a failing
//                  pass back instead of letting it poison the run.
//   --verify-ir    verify IR invariants after every pass (no rollback;
//                  the run stops at the first violation).
//   --limits=SPEC  resource budgets, e.g.
//                  "am-rounds=8,growth=2.5,evals=100000,wall-ms=5000".
//   --inject=C[:N] arm deterministic fault class C (rae-flip,
//                  aht-skip-block, aht-misplace, edge-corrupt) at its N-th
//                  opportunity, to demonstrate the guards catch it.
//
// Exit codes: 0 success; 1 usage or I/O error; 2 parse or input-graph
// error; 3 a verification failed or a guarded pass was rolled back; 4 a
// resource budget was exhausted.
//
//===----------------------------------------------------------------------===//

#include "analysis/Annotate.h"
#include "figures/PaperFigures.h"
#include "interp/Equivalence.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "job/Job.h"
#include "report/HtmlReport.h"
#include "report/Recorder.h"
#include "support/ArgParser.h"
#include "support/Json.h"
#include "support/Profiler.h"
#include "support/Remarks.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "transform/Pipeline.h"
#include "verify/FaultInjector.h"
#include "verify/RemarkVerifier.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include <unistd.h>

using namespace am;

namespace {

/// Final-position hook for remarks::explainId: renders "bB[i]: <instr>"
/// for the instruction carrying \p Id in the optimized program, "" if the
/// id did not survive.
const std::string finalLocation(uint32_t Id, const void *Ctx) {
  const FlowGraph &G = *static_cast<const FlowGraph *>(Ctx);
  InstrLocation Loc = findInstrById(G, Id);
  if (!Loc.Found)
    return std::string();
  return "b" + std::to_string(Loc.Block) + "[" + std::to_string(Loc.Index) +
         "]: " + printInstr(G.block(Loc.Block).Instrs[Loc.Index], G.Vars);
}

/// Short per-instruction annotations for the remark-annotated DOT output:
/// how an inserted/sunk instruction got where it is, which assignments
/// were decomposed into which initializations.
std::unordered_map<uint32_t, std::string>
dotNotes(const std::vector<remarks::Remark> &All) {
  std::unordered_map<uint32_t, std::string> Notes;
  auto Tag = [](const remarks::Remark &R) {
    std::string T = "[" + R.Pass;
    if (R.Round != 0)
      T += " r" + std::to_string(R.Round);
    return T;
  };
  for (const remarks::Remark &R : All) {
    if (R.Act == remarks::Action::Insert || R.K == remarks::Kind::SinkInit) {
      std::string N = Tag(R);
      N += R.K == remarks::Kind::SinkInit ? " sunk" : " hoisted";
      if (R.Place != remarks::Placement::None) {
        N += " ";
        N += remarks::placementName(R.Place);
      }
      if (!R.Parents.empty()) {
        N += " from";
        for (uint32_t P : R.Parents)
          N += " #" + std::to_string(P);
      }
      Notes[R.InstrId] = N + "]";
    } else if (R.K == remarks::Kind::Decompose) {
      for (uint32_t New : R.NewIds)
        Notes[New] = Tag(R) + " split of #" + std::to_string(R.InstrId) + "]";
    } else if (R.K == remarks::Kind::Reconstruct) {
      Notes[R.InstrId] = Tag(R) + " reconstructed]";
    }
  }
  return Notes;
}

} // namespace

int main(int argc, char **argv) {
  std::string Pass = "uniform";
  std::string Passes;
  std::string Annotation;
  std::string TracePath;
  std::string ProfilePath;
  std::string RemarksPath;
  std::string Explain;
  std::string ReportPath;
  std::string FactsPath;
  std::string StatsValue;
  std::string LimitsSpec;
  std::string InjectSpec;
  std::string ThreadSpec;
  bool EmitDot = false, EmitStats = false, Verify = false;
  bool EmitRemarks = false, VerifyRemarks = false;
  bool Guarded = false, VerifyIR = false, Quiet = false;

  support::ArgParser Parser(
      "amopt",
      "Optimizes a `program { ... }` or `graph { ... }` source (FILE or\n"
      "stdin); with no FILE and a terminal on stdin, optimizes the paper's\n"
      "running example as a demo.\n"
      "Exit codes: 0 ok, 1 usage/io, 2 parse, 3 verify failure or rollback,\n"
      "4 limits.",
      "[FILE]");
  // A usage error prints the help on stderr and exits 1.
  auto Usage = [&Parser] {
    std::fputs(Parser.helpText().c_str(), stderr);
    return 1;
  };
  Parser.option("--pass", Pass,
                "one pass to run, sugar for --passes (default: uniform)",
                "uniform|am|lcm|bcm|restricted|cp|pde");
  Parser.option("--passes", Passes, "comma-separated pass pipeline",
                "p1,p2,...");
  Parser.flag("--dot", EmitDot, "print Graphviz DOT instead of the program");
  Parser.optionalValue("--stats", EmitStats, StatsValue,
                       "per-pass IR deltas, timings and solver counters on "
                       "stderr",
                       "json");
  Parser.option("--trace", TracePath,
                "write Chrome trace_event JSON for about:tracing / Perfetto",
                "out.json");
  Parser.option("--profile", ProfilePath,
                "write the optimizer's self-profile (phase tree + "
                "collapsed stacks) as JSON",
                "out.json");
  Parser.optionalValue("--remarks", EmitRemarks, RemarksPath,
                       "record every transformation decision (stderr, or "
                       "=FILE as JSON)",
                       "out.json");
  Parser.option("--explain", Explain,
                "print an instruction's (or a variable's) provenance chain",
                "var|instr-id");
  Parser.option("--report", ReportPath,
                "write a self-contained HTML optimization report",
                "out.html");
  Parser.option("--facts", FactsPath,
                "write per-round snapshots, diffs and Table 1-3 facts as "
                "JSON",
                "out.json");
  Parser.option("--annotate", Annotation,
                "print analysis facts over the *input* instead of "
                "transforming",
                "redundancy|hoist|flush|live");
  Parser.flag("--verify", Verify,
              "interpret input and output on random inputs; exit 3 on "
              "divergence");
  Parser.flag("--verify-remarks", VerifyRemarks,
              "replay every remark's facts against fresh analyses; exit 3 "
              "on failure");
  Parser.flag("--guarded", Guarded,
              "snapshot each pass, verify its result, roll failures back; "
              "exit 3 if any pass was rolled back");
  Parser.flag("--verify-ir", VerifyIR,
              "verify IR invariants after every pass (no rollback)");
  Parser.option("--limits", LimitsSpec,
                "resource budgets; exceeded budgets exit 4",
                "am-rounds=N,growth=F,evals=N,wall-ms=F");
  Parser.option("--inject", InjectSpec,
                "arm a deterministic fault class for guard testing",
                "rae-flip|aht-skip-block|aht-misplace|edge-corrupt[:site]");
  Parser.option("--threads", ThreadSpec,
                "worker threads for the dataflow solves (output is "
                "identical for every value; default AM_THREADS or 1)",
                "N|max");
  Parser.flag("--quiet", Quiet,
              "suppress informational stderr notes (errors, rollback and "
              "verification diagnostics stay)");
  if (!Parser.parse(argc, argv)) {
    std::fprintf(stderr, "amopt: %s\n", Parser.error().c_str());
    return Usage();
  }
  if (Parser.helpRequested()) {
    std::fputs(Parser.helpText().c_str(), stdout);
    return 0;
  }
  bool StatsJson = StatsValue == "json";
  if (EmitStats && !StatsValue.empty() && !StatsJson) {
    std::fprintf(stderr, "amopt: unknown stats format '%s'\n",
                 StatsValue.c_str());
    return Usage();
  }
  // Last positional wins, as the pre-ArgParser loop behaved.
  std::string File;
  if (!Parser.positional().empty())
    File = Parser.positional().back();

  for (const auto &[What, Path] :
       {std::pair{"trace", &TracePath}, std::pair{"profile", &ProfilePath}})
    if (!Path->empty() && (*Path)[0] == '-') {
      std::fprintf(stderr, "amopt: suspicious %s path '%s'\n", What,
                   Path->c_str());
      return Usage();
    }

  // Validate flags before touching stdin so a bad invocation never blocks
  // on input.  --pass is sugar for a one-pass --passes; its pde also
  // simplifies, as the pass always has on the command line.
  const std::string Spec =
      !Passes.empty() ? Passes : (Pass == "pde" ? "pde,simplify" : Pass);
  {
    diag::Expected<std::vector<std::string>> Names = parsePassSpec(Spec);
    if (!Names.ok()) {
      std::fprintf(stderr, "amopt: %s\n",
                   Names.diagnostic().render().c_str());
      return Usage();
    }
  }
  if (!ThreadSpec.empty()) {
    std::string ThreadsErr;
    unsigned N = threads::parseThreadSpec(ThreadSpec, &ThreadsErr);
    if (N == 0) {
      std::fprintf(stderr, "amopt: --threads: %s\n", ThreadsErr.c_str());
      return Usage();
    }
    threads::setGlobalThreadCount(N);
  }
  PipelineLimits Limits;
  if (!LimitsSpec.empty()) {
    diag::Expected<PipelineLimits> L = parseLimitsSpec(LimitsSpec);
    if (!L.ok()) {
      std::fprintf(stderr, "amopt: %s\n", L.diagnostic().render().c_str());
      return Usage();
    }
    Limits = *L;
  }
  fault::FaultInjector Injector;
  bool Injecting = false;
  if (!InjectSpec.empty()) {
    auto F = fault::parseFaultSpec(InjectSpec);
    if (!F.ok()) {
      std::fprintf(stderr, "amopt: %s\n", F.diagnostic().render().c_str());
      return Usage();
    }
    Injector.arm(F->first, F->second);
    Injector.install();
    Injecting = true;
  }
  // The remark verifier replays the plain uniform pipeline; it has no
  // meaning for other passes or under the pipeline's guards.
  if (VerifyRemarks && (Spec != "uniform" || Guarded || VerifyIR ||
                        Limits.any())) {
    std::fprintf(stderr,
                 "amopt: --verify-remarks requires the default uniform "
                 "pass and cannot combine with --guarded/--verify-ir/"
                 "--limits\n");
    return Usage();
  }
  AnnotationKind AnnotKind = AnnotationKind::Redundancy;
  if (!Annotation.empty() && !parseAnnotationKind(Annotation, AnnotKind)) {
    std::fprintf(stderr, "amopt: unknown annotation '%s'\n",
                 Annotation.c_str());
    return Usage();
  }
  if ((VerifyRemarks || EmitRemarks || !Explain.empty() ||
       !ReportPath.empty() || !FactsPath.empty()) &&
      !Annotation.empty()) {
    std::fprintf(stderr, "amopt: --annotate does not transform; remark "
                         "and report flags have no effect with it\n");
    return Usage();
  }
  // A numeric --explain names an instruction id, which must fit 32 bits.
  std::optional<uint32_t> ExplainId;
  if (!Explain.empty() &&
      Explain.find_first_not_of("0123456789") == std::string::npos) {
    uint32_t Id = 0;
    const char *End = Explain.data() + Explain.size();
    if (std::from_chars(Explain.data(), End, Id).ec != std::errc()) {
      std::fprintf(stderr, "amopt: --explain: instruction id '%s' is out "
                           "of range\n",
                   Explain.c_str());
      return 1;
    }
    ExplainId = Id;
  }

  JobRequest Req;
  Req.Name = File.empty() ? "<stdin>" : File;
  if (!File.empty() || !isatty(STDIN_FILENO)) {
    std::ifstream In;
    if (!File.empty()) {
      In.open(File);
      if (!In) {
        std::fprintf(stderr, "amopt: cannot open '%s'\n", File.c_str());
        return 1;
      }
    }
    std::ostringstream Buf;
    Buf << (File.empty() ? std::cin.rdbuf() : In.rdbuf());
    Req.Source = Buf.str();
  } else {
    if (!Quiet)
      std::fprintf(stderr,
                   "amopt: no input; optimizing the paper's running example\n");
    Req.Graph = figure4();
  }
  Req.Passes = Annotation.empty() ? Spec : std::string();
  Req.Pipeline.Guarded = Guarded;
  Req.Pipeline.VerifyIR = VerifyIR;
  Req.Pipeline.Limits = Limits;
  Req.Profile = !ProfilePath.empty();
  Req.Trace = !TracePath.empty();
  // --report/--facts imply remark collection: the report anchors remarks
  // on snapshot instructions and the diffs key on the ids the sink
  // assigns.
  bool Record = !ReportPath.empty() || !FactsPath.empty();
  bool CollectRemarks =
      EmitRemarks || !Explain.empty() || VerifyRemarks || Record;
  Req.Remarks = CollectRemarks;
  Req.VerifyRemarks = VerifyRemarks;

  // Flight recorder behind --report/--facts: the transforms snapshot
  // every pipeline phase and AM round and capture the Tables 1-3 facts at
  // each analysis run (see report/Recorder.h).  The AM_DISABLE_STATS
  // environment variable demonstrates the degraded mode: the report is
  // still produced, with its counter panels marked unavailable instead of
  // showing half-recorded numbers.
  report::RecorderSession Recorder;
  bool StatsAvailable = true;
#ifdef AM_DISABLE_STATS
  StatsAvailable = false;
#endif
  if (Record) {
    if (!StatsAvailable || std::getenv("AM_DISABLE_STATS")) {
      Recorder.setCaptureCounters(false);
      StatsAvailable = false;
    }
    Req.Recorder = &Recorder;
  }

  // The trace file covers the whole job, emission included; a Session
  // also guarantees the file is written even if a pass dies through
  // exit() (std::atexit fallback).
  std::optional<trace::Session> TraceSession;
  if (!TracePath.empty() && Annotation.empty())
    TraceSession.emplace(TracePath);

  JobResult Job = runJob(std::move(Req));
  // Everything below (verification, emission, the dumps) observes into
  // the job's session too.
  telemetry::SessionScope JobScope(*Job.Telemetry);
  const FlowGraph &Input = Job.Input;
  const FlowGraph &Output = Job.Pipeline.Graph;
  // Under --stats=json rollbacks are reported inside the JSON object, so
  // stderr stays machine-readable.
  if (!(EmitStats && StatsJson && Job.Status == "rolled_back"))
    for (const std::string &D : Job.Diags)
      std::fprintf(stderr, "amopt: %s\n", D.c_str());
  if (Job.Status == "error")
    return Job.ExitCode;

  if (!Annotation.empty()) {
    FlowGraph Prepared = Input;
    Prepared.splitCriticalEdges();
    std::fputs(annotate(Prepared, AnnotKind).c_str(), stdout);
    return 0;
  }
  if (EmitStats && !StatsJson)
    for (const std::string &Line : Job.Pipeline.Log)
      std::fprintf(stderr, "amopt: %s\n", Line.c_str());

  if (Verify) {
    // Run both programs on a battery of pseudo-random inputs and
    // nondeterministic paths; any divergence is an optimizer bug.
    unsigned Failures = 0;
    for (uint64_t Round = 0; Round < 16; ++Round) {
      Interpreter::Options Opts;
      Opts.MaxSteps = 200000;
      EquivalenceReport Rep = checkEquivalent(
          Input, Output, equivalenceInputs(Input, Round), Round, Opts);
      if (!Rep.Equivalent) {
        ++Failures;
        std::fprintf(stderr, "amopt: VERIFY FAILED (round %llu): %s\n",
                     (unsigned long long)Round, Rep.Detail.c_str());
      }
    }
    if (Failures != 0)
      return 3;
    // Under --stats=json the result is reported inside the JSON object
    // instead, keeping stderr machine-readable.
    if (!Quiet && !(EmitStats && StatsJson))
      std::fprintf(stderr,
                   "amopt: verify OK (16 rounds, identical observable "
                   "behaviour)\n");
  }

  std::vector<remarks::Remark> AllRemarks;
  if (CollectRemarks)
    AllRemarks = remarks::Sink::get().remarks();

  // Persist the remark stream before reporting verification failures so a
  // failing run still leaves the evidence on disk.
  if (!RemarksPath.empty()) {
    std::ofstream Out(RemarksPath);
    if (!Out) {
      std::fprintf(stderr, "amopt: cannot write remarks '%s'\n",
                   RemarksPath.c_str());
      return 1;
    }
    Out << remarks::Sink::get().toJsonString() << "\n";
  } else if (EmitRemarks) {
    std::fprintf(stderr, "%s\n", remarks::Sink::get().toJsonString().c_str());
  }

  // The recording artifacts, likewise persisted before any verification
  // verdict can fail the process.
  if (!FactsPath.empty()) {
    std::ofstream Out(FactsPath);
    if (!Out) {
      std::fprintf(stderr, "amopt: cannot write facts '%s'\n",
                   FactsPath.c_str());
      return 1;
    }
    Out << Recorder.toJsonString(&AllRemarks) << "\n";
  }
  if (!ReportPath.empty()) {
    report::ReportMeta Meta;
    Meta.Title = File.empty() ? "<stdin>" : File;
    Meta.PassSpec = Passes.empty() ? Pass : Passes;
    Meta.InputText = printGraph(Input);
    Meta.OutputText = printGraph(Output);
    Meta.Remarks = AllRemarks;
    Meta.StatsAvailable = StatsAvailable;
    std::ofstream Out(ReportPath);
    if (!Out) {
      std::fprintf(stderr, "amopt: cannot write report '%s'\n",
                   ReportPath.c_str());
      return 1;
    }
    Out << report::renderHtmlReport(Recorder, Meta);
    if (!Quiet && !(EmitStats && StatsJson))
      std::fprintf(stderr, "amopt: report written to %s\n",
                   ReportPath.c_str());
  }

  if (VerifyRemarks) {
    const RemarkVerifyReport &Check = Job.RemarkCheck;
    for (const std::string &Line : Check.Failures)
      std::fprintf(stderr, "amopt: REMARK VERIFY FAILED: %s\n", Line.c_str());
    if (!Check.ok())
      return 3;
    if (!Quiet && !(EmitStats && StatsJson))
      std::fprintf(stderr,
                   "amopt: remark verify OK (%u remarks replayed against "
                   "fresh analyses)\n",
                   Check.Checked);
  }

  // stdout: the provenance chains behind --explain, Graphviz DOT, or the
  // optimized program.
  {
    AM_SPAN(Span, "emit");
    if (!Explain.empty()) {
      remarks::Provenance Prov = remarks::Provenance::build(AllRemarks);
      std::vector<uint32_t> Ids;
      if (ExplainId)
        Ids.push_back(*ExplainId);
      else
        Ids = Prov.idsForVar(Explain, AllRemarks);
      if (Ids.empty()) {
        std::fprintf(stderr,
                     "amopt: nothing to explain for '%s' (no remark "
                     "mentions it)\n",
                     Explain.c_str());
        return 1;
      }
      // One chain per lineage family: ids whose family was already
      // rendered are skipped so a variable's history is not repeated per
      // member.
      std::set<uint32_t> Covered;
      for (uint32_t Id : Ids) {
        if (Covered.count(Id))
          continue;
        for (uint32_t Member : Prov.family(Id))
          Covered.insert(Member);
        std::fputs(
            remarks::explainId(Id, AllRemarks, Prov, finalLocation, &Output)
                .c_str(),
            stdout);
      }
    } else if (EmitDot) {
      // Collected remarks annotate the instructions they touched.
      std::unordered_map<uint32_t, std::string> Notes = dotNotes(AllRemarks);
      auto Note = [&Notes](const Instr &I) {
        auto It = Notes.find(I.Id);
        return It == Notes.end() ? std::string() : It->second;
      };
      std::fputs(printDot(Output, Pass, Note).c_str(), stdout);
    } else {
      std::fputs(printGraph(Output).c_str(), stdout);
    }
  }

  // The dumps come after emission so its span is in every one of them.
  // Fold process-memory gauges (peak RSS, cumulative allocations) into
  // the registry right before it is dumped; on platforms without the
  // sources the gauges are simply absent.
  if (EmitStats)
    prof::recordMemoryGauges(stats::Registry::get());
  if (EmitStats && StatsJson) {
    // One JSON object on stderr so the optimized program on stdout stays
    // pipeable: {"input": {...}, "output": {...}, "passes": [...],
    // "registry": {...}}.
    std::string Out;
    json::Writer W(Out);
    W.beginObject();
    W.key("input").beginObject();
    W.key("blocks").value(uint64_t(Input.numBlocks()));
    W.key("instrs").value(uint64_t(Input.numInstrs()));
    W.endObject();
    W.key("output").beginObject();
    W.key("blocks").value(uint64_t(Output.numBlocks()));
    W.key("instrs").value(uint64_t(Output.numInstrs()));
    W.endObject();
    if (Verify) { // reached only when all rounds agreed
      W.key("verify").beginObject();
      W.key("rounds").value(uint64_t(16));
      W.key("ok").value(true);
      W.endObject();
    }
    W.endObject();
    Out.pop_back(); // reopen the object to splice pre-rendered payloads
    Out += ",\"passes\":" + passRecordsJson(Job.Pipeline.Records);
    Out += ",\"registry\":" + stats::Registry::get().dumpJsonString();
    Out += "}";
    std::fprintf(stderr, "%s\n", Out.c_str());
  } else if (EmitStats) {
    std::fprintf(stderr, "amopt: %zu -> %zu instructions\n",
                 Input.numInstrs(), Output.numInstrs());
    std::ostringstream Reg;
    stats::Registry::get().dumpText(Reg);
    std::fputs(Reg.str().c_str(), stderr);
  }

  if (Injecting && Injector.firedCount() == 0 && !Quiet &&
      !(EmitStats && StatsJson))
    std::fprintf(stderr,
                 "amopt: note: injected fault '%s' never fired (no "
                 "opportunity in this run)\n",
                 InjectSpec.c_str());

  // The profile and the trace go to their own files: the program on
  // stdout is byte-identical with or without them.
  if (!ProfilePath.empty()) {
    if (!prof::Profiler::get().writeJsonFile(ProfilePath)) {
      std::fprintf(stderr, "amopt: cannot write profile '%s'\n",
                   ProfilePath.c_str());
      return 1;
    }
    if (!Quiet && !(EmitStats && StatsJson))
      std::fprintf(stderr, "amopt: profile written to %s\n",
                   ProfilePath.c_str());
  }
  if (TraceSession) {
    if (!TraceSession->close()) {
      std::fprintf(stderr, "amopt: cannot write trace '%s'\n",
                   TracePath.c_str());
      return 1;
    }
    // Keep stderr pure JSON under --stats=json so it can be piped
    // straight into tooling.
    if (!Quiet && !(EmitStats && StatsJson))
      std::fprintf(stderr,
                   "amopt: trace written to %s (open in about:tracing or "
                   "ui.perfetto.dev)\n",
                   TracePath.c_str());
  }
  // Guarded outcomes (rollbacks 3, exhausted budgets 4) set the exit code
  // once every artifact is out.
  return Job.ExitCode;
}
