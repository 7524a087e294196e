//===- tools/ambench.cpp - Wall-clock benchmark runner ---------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// ambench — repeatable wall-clock measurements of the optimizer over
// generated workloads, as machine-readable JSON.
//
//   ambench [--out=BENCH_run.json] [--reps=N] [--warmup=N] [--quick]
//           [--filter=SUBSTR] [--list]
//
// Each preset builds its workload once (generation and any pre-
// optimization are setup, never timed), runs `--warmup` untimed
// iterations, then times `--reps` iterations.  Per preset the report
// carries every sample plus a median with outliers rejected by the
// median-absolute-deviation rule (samples further than 3.5 MADs from the
// median are dropped, the median is recomputed over the survivors), so a
// single scheduler hiccup cannot shift the headline number.
//
// The `calib/spin` preset is a fixed pure-integer spin loop: it measures
// the machine, not the optimizer.  Trend comparisons across machines
// divide preset medians by the calibration median
// (tools/bench_check.py --trend), which cancels most of the raw
// CPU-speed difference between the recording and checking hosts.
//
// The emitted document ("schema": "ambench-v1") also fingerprints the
// machine — hostname, CPU model, logical cores, page size, compiler —
// because a wall-clock number without its machine is noise.
//
// Exit codes: 0 ok, 1 usage or I/O error.
//
//===----------------------------------------------------------------------===//

#include "analysis/PaperAnalyses.h"
#include "gen/RandomProgram.h"
#include "interp/Interpreter.h"
#include "ir/FlowGraph.h"
#include "ir/Patterns.h"
#include "ir/Printer.h"
#include "job/Job.h"
#include "parser/Parser.h"
#include "support/ArgParser.h"
#include "support/History.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "transform/CopyPropagation.h"
#include "transform/LazyCodeMotion.h"
#include "transform/PartialDeadCodeElim.h"
#include "transform/UniformEmAm.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define AMBENCH_HAVE_UNISTD 1
#endif

using namespace am;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One benchmark: a name, a setup step producing state, and the timed
/// body.  The body returns a value derived from its work so the optimizer
/// cannot dead-code it away; the runner folds it into a checksum.
using WorkFacts = std::vector<std::pair<std::string, uint64_t>>;

struct Preset {
  std::string Name;
  /// Builds the workload; runs once, untimed.  Returns static facts
  /// about the workload ("instrs_in": ..., ...), reported verbatim.
  std::function<WorkFacts()> Setup;
  /// The timed body.
  std::function<uint64_t()> Body;
  /// Skipped under --quick (the large scaling points).
  bool Heavy = false;
};

struct Measurement {
  std::string Name;
  std::vector<uint64_t> Samples; // all timed reps, in run order
  uint64_t WallNs = 0;           // median of MAD-surviving samples
  uint64_t MadNs = 0;            // MAD of all samples
  unsigned Kept = 0;             // samples surviving outlier rejection
  WorkFacts Work;
};

uint64_t medianOf(std::vector<uint64_t> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N == 0 ? 0 : (N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2);
}

/// Median + MAD outlier rejection: drop samples more than 3.5 MADs from
/// the median, take the median of the rest.  With MAD == 0 (identical
/// samples) everything survives.
void summarize(Measurement &M) {
  uint64_t Med = medianOf(M.Samples);
  std::vector<uint64_t> Dev;
  Dev.reserve(M.Samples.size());
  for (uint64_t S : M.Samples)
    Dev.push_back(S > Med ? S - Med : Med - S);
  M.MadNs = medianOf(Dev);
  std::vector<uint64_t> Kept;
  for (uint64_t S : M.Samples) {
    uint64_t D = S > Med ? S - Med : Med - S;
    if (M.MadNs == 0 || D <= 7 * M.MadNs / 2) // 3.5 * MAD
      Kept.push_back(S);
  }
  M.Kept = static_cast<unsigned>(Kept.size());
  M.WallNs = medianOf(Kept);
}

//===----------------------------------------------------------------------===//
// Machine fingerprint
//===----------------------------------------------------------------------===//

uint64_t pageSize() {
#ifdef AMBENCH_HAVE_UNISTD
  long P = sysconf(_SC_PAGESIZE);
  if (P > 0)
    return static_cast<uint64_t>(P);
#endif
  return 0;
}

//===----------------------------------------------------------------------===//
// Presets
//===----------------------------------------------------------------------===//

uint64_t instrCount(const FlowGraph &G) { return G.numInstrs(); }

std::vector<Preset> buildPresets() {
  std::vector<Preset> Out;

  {
    Preset P;
    P.Name = "calib/spin";
    P.Setup = [] { return WorkFacts(); };
    P.Body = [] { return hist::calibrationSpin(20'000'000); };
    Out.push_back(std::move(P));
  }

  // Optimize-time scaling points: the uniform algorithm over structured
  // programs of growing size (the bench/bench_scaling axis, but wall
  // clock instead of counters).
  struct ScalePoint {
    const char *Name;
    unsigned TargetStmts;
    unsigned NumVars;
    uint64_t Seed;
    bool Heavy;
  };
  static const ScalePoint Scales[] = {
      {"uniform/structured-64", 64, 6, 11, false},
      {"uniform/structured-256", 256, 10, 12, false},
      {"uniform/structured-1024", 1024, 14, 13, true},
  };
  for (const ScalePoint &SP : Scales) {
    Preset P;
    P.Name = SP.Name;
    P.Heavy = SP.Heavy;
    auto G = std::make_shared<FlowGraph>();
    P.Setup = [G, SP] {
      GenOptions Opts;
      Opts.TargetStmts = SP.TargetStmts;
      Opts.NumVars = SP.NumVars;
      *G = generateStructuredProgram(SP.Seed, Opts);
      return WorkFacts{{"instrs_in", instrCount(*G)},
                       {"blocks_in", G->numBlocks()}};
    };
    P.Body = [G] { return instrCount(runUniformEmAm(*G)); };
    Out.push_back(std::move(P));
  }

  // Solver-scaling points: the Table 1-2 analyses (hoistability,
  // redundancy) over large structured programs with a pattern universe
  // far wider than one machine word, so the sliced engine
  // (dfa/MultiPattern.h) runs at its full group width.  Generation and
  // pattern-table construction happen in Setup; the timed body is full
  // dataflow solves only.
  struct SolvePoint {
    const char *Name;
    unsigned TargetStmts;
    unsigned NumVars;
    unsigned PatternPool;
    uint64_t Seed;
    bool Heavy;
  };
  static const SolvePoint SolveScales[] = {
      {"dfa/solve-10k-blocks", 20'000, 24, 320, 61, false},
      {"dfa/solve-100k-blocks", 200'000, 32, 640, 62, true},
  };
  for (const SolvePoint &SP : SolveScales) {
    Preset P;
    P.Name = SP.Name;
    P.Heavy = SP.Heavy;
    auto G = std::make_shared<FlowGraph>();
    auto Pats = std::make_shared<AssignPatternTable>();
    P.Setup = [G, Pats, SP] {
      GenOptions Opts;
      Opts.TargetStmts = SP.TargetStmts;
      Opts.NumVars = SP.NumVars;
      Opts.PatternPoolSize = SP.PatternPool;
      *G = generateStructuredProgram(SP.Seed, Opts);
      Pats->clear(); // a new graph: number it afresh
      Pats->build(*G);
      return WorkFacts{{"instrs_in", instrCount(*G)},
                       {"blocks_in", G->numBlocks()},
                       {"patterns", Pats->size()}};
    };
    P.Body = [G, Pats] {
      HoistabilityAnalysis H = HoistabilityAnalysis::run(*G, *Pats);
      RedundancyAnalysis R = RedundancyAnalysis::run(*G, *Pats);
      return H.entryHoistable(G->start()).count() * 1024 +
             R.exit(G->start()).count();
    };
    Out.push_back(std::move(P));
  }

  {
    Preset P;
    P.Name = "am/irreducible";
    auto G = std::make_shared<FlowGraph>();
    P.Setup = [G] {
      *G = generateIrreducibleCfg(21);
      return WorkFacts{{"instrs_in", instrCount(*G)},
                       {"blocks_in", G->numBlocks()}};
    };
    P.Body = [G] { return instrCount(runAssignmentMotionOnly(*G)); };
    Out.push_back(std::move(P));
  }

  {
    // The Section 6 EM+CP interleaving as a pipeline: exercises the
    // pipeline plumbing (PassScope bookkeeping included) end to end.
    Preset P;
    P.Name = "pipeline/emcp-structured-256";
    auto G = std::make_shared<FlowGraph>();
    P.Setup = [G] {
      GenOptions Opts;
      Opts.TargetStmts = 256;
      Opts.NumVars = 10;
      *G = generateStructuredProgram(31, Opts);
      return WorkFacts{{"instrs_in", instrCount(*G)},
                       {"blocks_in", G->numBlocks()}};
    };
    P.Body = [G] {
      JobRequest Req; // one job per rep, like an ambatch job
      Req.Graph = *G;
      Req.Passes = "lcm,cp,lcm";
      return instrCount(runJob(std::move(Req)).Pipeline.Graph);
    };
    Out.push_back(std::move(P));
  }

  {
    Preset P;
    P.Name = "pde/structured-256";
    auto G = std::make_shared<FlowGraph>();
    P.Setup = [G] {
      GenOptions Opts;
      Opts.TargetStmts = 256;
      Opts.NumVars = 10;
      *G = generateStructuredProgram(41, Opts);
      G->splitCriticalEdges();
      return WorkFacts{{"instrs_in", instrCount(*G)},
                       {"blocks_in", G->numBlocks()}};
    };
    P.Body = [G] {
      FlowGraph W = *G;
      runPartialDeadCodeElim(W);
      return instrCount(W);
    };
    Out.push_back(std::move(P));
  }

  {
    // Dynamic preset: interpret the uniform-optimized program.  The
    // optimization happens in Setup; the timed body is execution only,
    // so the number tracks the *runtime* effect of the transformations.
    Preset P;
    P.Name = "dynamic/interp-uniform";
    auto G = std::make_shared<FlowGraph>();
    P.Setup = [G] {
      GenOptions Opts;
      Opts.TargetStmts = 120;
      Opts.NumVars = 8;
      *G = runUniformEmAm(generateStructuredProgram(51, Opts));
      return WorkFacts{{"instrs_in", instrCount(*G)},
                       {"blocks_in", G->numBlocks()}};
    };
    P.Body = [G] {
      uint64_t Acc = 0;
      Interpreter::Options Opts;
      Opts.MaxSteps = 200000;
      for (uint64_t Run = 0; Run < 6; ++Run) {
        std::unordered_map<std::string, int64_t> In;
        for (unsigned V = 0; V < 8; ++V)
          In["v" + std::to_string(V)] =
              static_cast<int64_t>((Run * 7 + V) % 19) - 9;
        ExecResult R = Interpreter::execute(*G, In, Run, Opts);
        Acc += R.Stats.ExprEvaluations;
      }
      return Acc;
    };
    Out.push_back(std::move(P));
  }

  // The examples corpus as program texts, found by searching upward from
  // the working directory (the build tree in CI); when absent, seeded
  // generated stand-ins of similar size keep the corpus presets present
  // and deterministic, with \p Parsed = 0 making the substitution visible
  // in the document.  Only parseable programs are returned.
  auto exampleProgramTexts = [](uint64_t &Parsed) {
    namespace fs = std::filesystem;
    std::vector<std::string> Texts;
    Parsed = 0;
    std::string Prefix;
    for (int Depth = 0; Depth < 5 && Texts.empty();
         ++Depth, Prefix += "../") {
      std::error_code Ec;
      fs::path Dir = Prefix + "examples/programs";
      if (!fs::is_directory(Dir, Ec))
        continue;
      std::vector<fs::path> Files;
      for (const auto &Entry : fs::directory_iterator(Dir, Ec))
        if (Entry.is_regular_file() && Entry.path().extension() == ".am")
          Files.push_back(Entry.path());
      std::sort(Files.begin(), Files.end());
      for (const fs::path &F : Files) {
        std::ifstream In(F);
        std::ostringstream Buf;
        Buf << In.rdbuf();
        if (parseProgram(Buf.str()).ok())
          Texts.push_back(Buf.str());
      }
      Parsed = Texts.size();
    }
    if (Texts.empty())
      for (uint64_t Seed = 101; Seed <= 105; ++Seed) {
        GenOptions Opts;
        Opts.TargetStmts = 24;
        Texts.push_back(printGraph(generateStructuredProgram(Seed, Opts)));
      }
    return Texts;
  };

  {
    // The ambatch workload as a bench preset: every example program
    // through the guarded uniform pipeline, one fresh telemetry session
    // per program per rep (exactly one ambatch job).  wall_ns / programs
    // is the per-program batch cost, so the CI trend gate covers batch
    // throughput too.
    Preset P;
    P.Name = "batch/examples-throughput";
    auto Corpus = std::make_shared<std::vector<FlowGraph>>();
    P.Setup = [Corpus, exampleProgramTexts] {
      uint64_t Parsed = 0, TotalInstrs = 0;
      for (const std::string &Text : exampleProgramTexts(Parsed))
        Corpus->push_back(parseProgram(Text).Graph);
      for (const FlowGraph &G : *Corpus)
        TotalInstrs += instrCount(G);
      return WorkFacts{{"programs", Corpus->size()},
                       {"parsed", Parsed},
                       {"instrs_in", TotalInstrs}};
    };
    P.Body = [Corpus] {
      uint64_t Acc = 0;
      for (const FlowGraph &G : *Corpus) {
        JobRequest Req;
        Req.Graph = G;
        Req.Pipeline.Guarded = true;
        Acc += instrCount(runJob(std::move(Req)).Pipeline.Graph);
      }
      return Acc;
    };
    Out.push_back(std::move(P));
  }

  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath;
  std::string RepsStr, WarmupStr, Filter, ThreadSpec, HistoryPath;
  bool Quick = false, List = false;

  support::ArgParser Parser(
      "ambench",
      "Times the optimizer over generated workloads and writes one\n"
      "machine-readable JSON document (schema ambench-v1) with per-preset\n"
      "samples, MAD-filtered medians and a machine fingerprint.");
  Parser.option("--out", OutPath, "output file (default: stdout)",
                "BENCH_run.json");
  Parser.option("--reps", RepsStr, "timed repetitions per preset "
                                   "(default: 9)",
                "N");
  Parser.option("--warmup", WarmupStr, "untimed warmup runs per preset "
                                       "(default: 2)",
                "N");
  Parser.flag("--quick", Quick,
              "3 reps, 1 warmup, skip the largest scaling points");
  Parser.option("--filter", Filter, "run only presets containing SUBSTR",
                "SUBSTR");
  Parser.option("--threads", ThreadSpec,
                "worker threads for the dataflow solves (wall-clock only; "
                "results are identical for every value)",
                "N|max");
  Parser.flag("--list", List, "list preset names and exit");
  Parser.option("--history", HistoryPath,
                "append this run to an amhist-v1 run-history file "
                "(for tools/amtrend)",
                "F.jsonl");
  if (!Parser.parse(argc, argv)) {
    std::fprintf(stderr, "ambench: %s\n", Parser.error().c_str());
    return 1;
  }
  if (Parser.helpRequested()) {
    std::fputs(Parser.helpText().c_str(), stdout);
    return 0;
  }

  unsigned Reps = Quick ? 3 : 9;
  unsigned Warmup = Quick ? 1 : 2;
  if (!RepsStr.empty())
    Reps = static_cast<unsigned>(std::strtoul(RepsStr.c_str(), nullptr, 10));
  if (!WarmupStr.empty())
    Warmup =
        static_cast<unsigned>(std::strtoul(WarmupStr.c_str(), nullptr, 10));
  if (Reps == 0) {
    std::fprintf(stderr, "ambench: --reps must be at least 1\n");
    return 1;
  }
  if (!ThreadSpec.empty()) {
    std::string ThreadsErr;
    unsigned N = threads::parseThreadSpec(ThreadSpec, &ThreadsErr);
    if (N == 0) {
      std::fprintf(stderr, "ambench: --threads: %s\n", ThreadsErr.c_str());
      return 1;
    }
    threads::setGlobalThreadCount(N);
  }

  std::vector<Preset> Presets = buildPresets();
  if (List) {
    for (const Preset &P : Presets)
      std::printf("%s%s\n", P.Name.c_str(), P.Heavy ? " (heavy)" : "");
    return 0;
  }

  uint64_t Checksum = 0; // defeats dead-code elimination of the bodies
  std::vector<Measurement> Results;
  uint64_t CalibNs = 0;
  for (Preset &P : Presets) {
    // A history entry without its calibration spin cannot be normalized,
    // so --history keeps calib/spin alive through any --filter.
    bool MustRun = !HistoryPath.empty() && P.Name == "calib/spin";
    if (!Filter.empty() && P.Name.find(Filter) == std::string::npos &&
        !MustRun)
      continue;
    if (Quick && P.Heavy)
      continue;
    WorkFacts Work = P.Setup();
    for (unsigned I = 0; I < Warmup; ++I)
      Checksum ^= P.Body();
    Measurement M;
    M.Name = P.Name;
    M.Work = std::move(Work);
    M.Samples.reserve(Reps);
    for (unsigned I = 0; I < Reps; ++I) {
      uint64_t T0 = nowNs();
      Checksum ^= P.Body();
      M.Samples.push_back(nowNs() - T0);
    }
    summarize(M);
    std::fprintf(stderr, "ambench: %-28s %10.3f ms  (MAD %.3f ms, %u/%zu "
                         "kept)\n",
                 M.Name.c_str(), M.WallNs / 1e6, M.MadNs / 1e6, M.Kept,
                 M.Samples.size());
    if (M.Name == "calib/spin")
      CalibNs = M.WallNs;
    Results.push_back(std::move(M));
  }
  if (Results.empty()) {
    std::fprintf(stderr, "ambench: no preset matched '%s'\n",
                 Filter.c_str());
    return 1;
  }

  std::string Doc;
  json::Writer W(Doc);
  W.beginObject();
  W.key("schema").value("ambench-v1");
  W.key("fingerprint").beginObject();
  W.key("host").value(hist::hostName());
  W.key("cpu").value(hist::cpuModel());
  W.key("threads").value(uint64_t(std::thread::hardware_concurrency()));
  W.key("page_size").value(pageSize());
#ifdef __VERSION__
  W.key("compiler").value(__VERSION__);
#else
  W.key("compiler").value("unknown");
#endif
  // Attribution: without the commit and the solver thread count a
  // longitudinal series cannot name its first bad commit or tell a
  // threading change from a regression.
  W.key("git_sha").value(hist::gitSha());
  W.key("solver_threads").value(uint64_t(threads::globalThreadCount()));
  W.endObject();
  W.key("config").beginObject();
  W.key("reps").value(uint64_t(Reps));
  W.key("warmup").value(uint64_t(Warmup));
  W.key("quick").value(Quick);
  W.key("solver_threads").value(uint64_t(threads::globalThreadCount()));
  W.endObject();
  W.key("calibration").beginObject();
  W.key("spin_ns").value(CalibNs);
  W.endObject();
  W.key("checksum").value(Checksum);
  W.key("results").beginArray();
  for (const Measurement &M : Results) {
    W.beginObject();
    W.key("name").value(M.Name);
    W.key("wall_ns").value(M.WallNs);
    W.key("mad_ns").value(M.MadNs);
    W.key("kept").value(uint64_t(M.Kept));
    W.key("samples").beginArray();
    for (uint64_t S : M.Samples)
      W.value(S);
    W.endArray();
    if (!M.Work.empty()) {
      W.key("work").beginObject();
      for (const auto &KV : M.Work)
        W.key(KV.first).value(KV.second);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();
  Doc += "\n";

  if (!HistoryPath.empty()) {
    hist::HistoryEntry E;
    E.Source = "ambench";
    hist::stampFingerprint(E);
    E.SolverThreads = threads::globalThreadCount();
    E.CalibNs = CalibNs;
    for (const Measurement &M : Results) {
      if (M.Name == "calib/spin")
        continue; // the calibration lands in calib_ns, not as a preset
      hist::PresetStat PS;
      PS.WallNs = M.WallNs;
      PS.MadNs = M.MadNs;
      PS.Work = M.Work;
      std::sort(PS.Work.begin(), PS.Work.end());
      E.Presets.emplace_back(M.Name, std::move(PS));
    }
    std::sort(E.Presets.begin(), E.Presets.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    std::string HistErr;
    if (!hist::appendHistoryFile(HistoryPath, E, &HistErr)) {
      std::fprintf(stderr, "ambench: %s\n", HistErr.c_str());
      return 1;
    }
    std::fprintf(stderr, "ambench: run appended to history %s\n",
                 HistoryPath.c_str());
  }

  if (OutPath.empty() || OutPath == "-") {
    std::fputs(Doc.c_str(), stdout);
    return 0;
  }
  std::ofstream OutFile(OutPath);
  if (!OutFile) {
    std::fprintf(stderr, "ambench: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  OutFile << Doc;
  std::fprintf(stderr, "ambench: run written to %s (%zu presets)\n",
               OutPath.c_str(), Results.size());
  return 0;
}
