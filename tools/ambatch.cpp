//===- tools/ambatch.cpp - Corpus batch runner -----------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// ambatch — drive a corpus of programs through guarded pipelines on a
// thread pool, one telemetry session per job, and turn the per-job sinks
// into fleet-level observability (the corpus-scale counterpart of one
// amopt run).
//
//   ambatch [--passes=p1,...] [--unguarded] [--limits=k=v,...]
//           [--threads=N|max] [--gen=N[:seed]] [--gen-stmts=N]
//           [--events=F.jsonl] [--aggregate=F.json] [--history=F.jsonl]
//           [--quiet] [FILE|DIR ...]
//
// Three outputs:
//   --events=F     amevents-v1 JSONL, one record per job (program hash,
//                  wall/phase timings, machine-independent counters,
//                  rollback/limit/remark summaries), appended and flushed
//                  as each job completes — a killed run loses at most the
//                  record being written.
//   --aggregate=F  amagg-v1 JSON: deterministic cross-job counter sums,
//                  min/max/mean and log2 histograms with p50/p95/p99.
//                  Byte-identical for any --threads value and completion
//                  order (jobs merge in index order at the barrier; no
//                  wall times inside).
//   --history=F    append one amhist-v1 record (per-group walls, counter
//                  sums, the aggregate's digest) for tools/amtrend.
//
// Concurrency model: jobs fan out on a private pool (--threads); the
// per-job dataflow solves run inline on their worker (the process-global
// solver thread count is pinned to 1), so job-level parallelism composes
// with the PR 7 solver instead of deadlocking inside it.  Every job gets
// its own telemetry::Session; nothing observable is shared.
//
// Exit codes mirror amopt: 0 all jobs ok; 1 usage or I/O error; 2 at
// least one job failed to parse or errored; 3 at least one pass rolled
// back; 4 at least one job exhausted a resource budget (2 > 4 > 3 when
// mixed).
//
//===----------------------------------------------------------------------===//

#include "gen/RandomProgram.h"
#include "job/Job.h"
#include "support/Aggregate.h"
#include "support/ArgParser.h"
#include "support/EventLog.h"
#include "support/History.h"
#include "support/ThreadPool.h"
#include "transform/Pipeline.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace am;
namespace fs = std::filesystem;

namespace {

struct JobSpec {
  uint64_t Index = 0;
  std::string Name;   // file stem or gen:<seed>
  std::string Preset; // directory basename, "file", or "gen"
  std::string Path;   // empty for generated jobs
  uint64_t Seed = 0;
  unsigned GenStmts = 40;
};

/// One corpus job (job/Job.h) as its event record: \p Req carries the
/// batch's passes, guards and sinks.  \p Diags receives the job's
/// attributable diagnostics ("[name hash] pass rolled back: ...") for the
/// caller to print.
fleet::JobEvent runCorpusJob(const JobSpec &Spec, JobRequest Req,
                             std::vector<std::string> &Diags) {
  fleet::JobEvent E;
  E.Index = Spec.Index;
  E.Name = Req.Name = Spec.Name;
  E.Preset = Spec.Preset;

  auto T0 = std::chrono::steady_clock::now();
  if (Spec.Path.empty()) {
    GenOptions GOpts;
    GOpts.TargetStmts = Spec.GenStmts;
    Req.Graph = generateStructuredProgram(Spec.Seed, GOpts);
  } else {
    std::ifstream In(Spec.Path);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    if (!In.good() && !In.eof()) {
      E.Status = "error";
      E.Error = "cannot read '" + Spec.Path + "'";
      Diags.push_back("[" + Spec.Name + "] " + E.Error);
      return E;
    }
    Req.Source = Buf.str();
  }
  // The job's solves inherit the process policy, pinned to 1 worker, so
  // they run inline on this job's thread.
  JobResult R = runJob(std::move(Req));
  E.WallNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
  E.Hash = R.Hash;
  E.Status = R.Status;
  E.Error = R.Error;
  E.Rollbacks = R.Pipeline.RollbackCount;
  E.LimitsHit = R.Status == "limits";
  E.BlocksBefore = R.Input.numBlocks();
  E.InstrsBefore = R.Input.numInstrs();
  E.BlocksAfter = R.Pipeline.Graph.numBlocks();
  E.InstrsAfter = R.Pipeline.Graph.numInstrs();
  E.Phases = std::move(R.Phases);
  E.Counters = std::move(R.Counters);
  E.RemarkKinds = std::move(R.RemarkKinds);
  Diags.insert(Diags.end(), R.Diags.begin(), R.Diags.end());
  return E;
}

/// Parses all of \p Text as an unsigned decimal number: no sign, no
/// suffix, no overflow.
bool parseWhole(const std::string &Text, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

fleet::Aggregate aggregateInOrder(const std::vector<fleet::JobEvent> &Events) {
  // Merge in job-index order at the barrier — never completion order —
  // so the aggregate JSON is byte-identical for any thread count.
  fleet::Aggregate Agg;
  for (const fleet::JobEvent &E : Events)
    Agg.addJob(E);
  return Agg;
}

bool writeAggregateFile(const std::string &Path, const fleet::Aggregate &Agg) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Agg.writeJson(Out);
  Out << '\n';
  return Out.good();
}

uint64_t medianU64(std::vector<uint64_t> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N == 0 ? 0 : (N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2);
}

/// This run as one amhist-v1 entry: per-corpus-group wall sums
/// ("batch/<preset>", plus "batch/all" across the corpus) with the MAD
/// of the per-job walls, the aggregate's machine-independent counter
/// sums, a digest of the serialized aggregate, and a freshly measured
/// calibration spin (ambatch runs no bench harness, so it measures the
/// machine here, ~0.1s).  \p SolverThreads is the run's job-level
/// worker count.
hist::HistoryEntry makeHistoryEntry(const std::vector<fleet::JobEvent> &Events,
                                    const fleet::Aggregate &Agg,
                                    uint64_t SolverThreads) {
  hist::HistoryEntry E;
  E.Source = "ambatch";
  hist::stampFingerprint(E);
  E.SolverThreads = SolverThreads;
  E.CalibNs = hist::measureCalibrationSpin();

  std::map<std::string, std::vector<uint64_t>> Walls; // name-sorted
  for (const fleet::JobEvent &Ev : Events) {
    Walls[Ev.Preset].push_back(Ev.WallNs);
    Walls["all"].push_back(Ev.WallNs);
  }
  for (const auto &[Group, W] : Walls) {
    hist::PresetStat PS;
    for (uint64_t Ns : W)
      PS.WallNs += Ns;
    uint64_t Med = medianU64(W);
    std::vector<uint64_t> Dev;
    Dev.reserve(W.size());
    for (uint64_t Ns : W)
      Dev.push_back(Ns > Med ? Ns - Med : Med - Ns);
    PS.MadNs = medianU64(std::move(Dev));
    PS.Work.emplace_back("jobs", W.size());
    E.Presets.emplace_back("batch/" + Group, std::move(PS));
  }

  for (const auto &[Name, M] : Agg.counters())
    E.Counters.emplace_back(Name, M.Sum);

  std::ostringstream AggJson;
  Agg.writeJson(AggJson);
  E.HasAggregate = true;
  E.AggJobs = Agg.jobs();
  E.AggHash = fleet::hex16(fleet::fnv1a64(AggJson.str()));
  for (const auto &[S, N] : Agg.statuses())
    E.AggStatuses.emplace_back(S, N);
  return E;
}

bool appendHistoryOrComplain(const std::string &Path,
                             const hist::HistoryEntry &E, bool Quiet) {
  std::string Err;
  if (!hist::appendHistoryFile(Path, E, &Err)) {
    std::fprintf(stderr, "ambatch: %s\n", Err.c_str());
    return false;
  }
  if (!Quiet)
    std::fprintf(stderr, "ambatch: run appended to history %s\n",
                 Path.c_str());
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string Passes = "uniform";
  std::string LimitsSpec, ThreadSpec, GenSpec, EventsPath, AggregatePath;
  std::string GenStmtsSpec, HistoryPath;
  bool Unguarded = false, Quiet = false;

  support::ArgParser Parser(
      "ambatch",
      "Drives a corpus of programs (files, directories of *.am, seeded\n"
      "random programs) through guarded pipelines on a thread pool and\n"
      "emits fleet telemetry: streaming events, a deterministic aggregate,\n"
      "and a run-history record.\n"
      "Exit codes: 0 all ok, 1 usage/io, 2 parse/job error, 3 rollbacks,\n"
      "4 limits.",
      "[FILE|DIR ...]");
  // A usage error prints the help on stderr and exits 1.
  auto Usage = [&Parser] {
    std::fputs(Parser.helpText().c_str(), stderr);
    return 1;
  };
  Parser.option("--passes", Passes, "pass pipeline for every job", "p1,p2,...");
  Parser.flag("--unguarded", Unguarded,
              "run the plain pipeline (default is guarded with rollback)");
  Parser.option("--limits", LimitsSpec, "per-job resource budgets",
                "am-rounds=N,growth=F,evals=N,wall-ms=F");
  Parser.option("--threads", ThreadSpec,
                "job-level worker threads (events/aggregate identical for "
                "every value)",
                "N|max");
  Parser.option("--gen", GenSpec, "add N seeded random programs", "N[:seed]");
  Parser.option("--gen-stmts", GenStmtsSpec,
                "target statements per generated program (default 40)", "N");
  Parser.option("--events", EventsPath,
                "write amevents-v1 JSONL, one flushed record per job",
                "F.jsonl");
  Parser.option("--aggregate", AggregatePath,
                "write the deterministic amagg-v1 cross-job aggregate",
                "F.json");
  Parser.option("--history", HistoryPath,
                "append this run to an amhist-v1 run-history file "
                "(for tools/amtrend)",
                "F.jsonl");
  Parser.flag("--quiet", Quiet,
              "suppress informational stderr (diagnostics and errors stay)");
  if (!Parser.parse(argc, argv)) {
    std::fprintf(stderr, "ambatch: %s\n", Parser.error().c_str());
    return Usage();
  }
  if (Parser.helpRequested()) {
    std::fputs(Parser.helpText().c_str(), stdout);
    return 0;
  }
  // Every job's request but its program.
  JobRequest Proto;
  Proto.Passes = Passes;
  Proto.Pipeline.Guarded = !Unguarded;
  Proto.Profile = Proto.Remarks = true;
  {
    diag::Expected<std::vector<std::string>> Spec = parsePassSpec(Passes);
    if (!Spec.ok()) {
      std::fprintf(stderr, "ambatch: %s\n", Spec.diagnostic().render().c_str());
      return Usage();
    }
  }
  if (!LimitsSpec.empty()) {
    diag::Expected<PipelineLimits> L = parseLimitsSpec(LimitsSpec);
    if (!L.ok()) {
      std::fprintf(stderr, "ambatch: %s\n", L.diagnostic().render().c_str());
      return Usage();
    }
    Proto.Pipeline.Limits = *L;
  }

  unsigned JobThreads = 1;
  if (!ThreadSpec.empty()) {
    std::string ThreadsErr;
    JobThreads = threads::parseThreadSpec(ThreadSpec, &ThreadsErr);
    if (JobThreads == 0) {
      std::fprintf(stderr, "ambatch: --threads: %s\n", ThreadsErr.c_str());
      return Usage();
    }
  }

  // Assemble the corpus: positional files/dirs first (name-sorted per
  // directory), then generated programs.  Index order IS the aggregate
  // merge order, so it must not depend on anything but the command line.
  std::vector<JobSpec> Specs;
  for (const std::string &Arg : Parser.positional()) {
    std::error_code Ec;
    if (fs::is_directory(Arg, Ec)) {
      std::vector<fs::path> Files;
      for (const auto &Entry : fs::directory_iterator(Arg, Ec))
        if (Entry.is_regular_file() && Entry.path().extension() == ".am")
          Files.push_back(Entry.path());
      std::sort(Files.begin(), Files.end());
      std::string Preset = fs::path(Arg).filename().string();
      if (Preset.empty())
        Preset = fs::path(Arg).parent_path().filename().string();
      for (const fs::path &F : Files) {
        JobSpec S;
        S.Name = F.stem().string();
        S.Preset = Preset;
        S.Path = F.string();
        Specs.push_back(std::move(S));
      }
    } else if (fs::is_regular_file(Arg, Ec)) {
      JobSpec S;
      S.Name = fs::path(Arg).stem().string();
      S.Preset = "file";
      S.Path = Arg;
      Specs.push_back(std::move(S));
    } else {
      std::fprintf(stderr, "ambatch: no such file or directory: '%s'\n",
                   Arg.c_str());
      return 1;
    }
  }
  if (!GenSpec.empty()) {
    uint64_t GenStmts = 40;
    if (!GenStmtsSpec.empty() &&
        (!parseWhole(GenStmtsSpec, GenStmts) || GenStmts == 0 ||
         GenStmts > std::numeric_limits<unsigned>::max())) {
      std::fprintf(stderr, "ambatch: bad --gen-stmts '%s'\n",
                   GenStmtsSpec.c_str());
      return Usage();
    }
    uint64_t Count = 0, Seed0 = 1;
    size_t Colon = GenSpec.find(':');
    if (!parseWhole(GenSpec.substr(0, Colon), Count) || Count == 0 ||
        (Colon != std::string::npos &&
         !parseWhole(GenSpec.substr(Colon + 1), Seed0))) {
      std::fprintf(stderr, "ambatch: bad --gen '%s'\n", GenSpec.c_str());
      return Usage();
    }
    for (uint64_t I = 0; I < Count; ++I) {
      JobSpec S;
      S.Seed = Seed0 + I;
      S.Name = "gen:" + std::to_string(S.Seed);
      S.Preset = "gen";
      S.GenStmts = static_cast<unsigned>(GenStmts);
      Specs.push_back(std::move(S));
    }
  }
  if (Specs.empty()) {
    std::fprintf(stderr, "ambatch: empty corpus (no FILE/DIR and no --gen)\n");
    return Usage();
  }
  for (uint64_t I = 0; I < Specs.size(); ++I)
    Specs[I].Index = I;

  // Job-level parallelism only: per-job solves run inline on their
  // worker, because a job submitting into the same pool it runs on would
  // deadlock.  Jobs inherit this pinned policy.
  threads::setGlobalThreadCount(1);

  std::optional<std::ofstream> EventsOut;
  std::optional<fleet::EventLogWriter> Writer;
  if (!EventsPath.empty()) {
    EventsOut.emplace(EventsPath, std::ios::binary);
    if (!*EventsOut) {
      std::fprintf(stderr, "ambatch: cannot write events '%s'\n",
                   EventsPath.c_str());
      return 1;
    }
    Writer.emplace(*EventsOut);
    Writer->writeHeader(Proto.Passes, Specs.size());
  }

  if (!Quiet)
    std::fprintf(stderr,
                 "ambatch: %zu jobs, %u thread(s), passes=%s%s\n",
                 Specs.size(), JobThreads, Proto.Passes.c_str(),
                 Proto.Pipeline.Guarded ? " (guarded)" : "");

  std::vector<fleet::JobEvent> Events(Specs.size());
  std::mutex DiagMu;
  auto Batch0 = std::chrono::steady_clock::now();
  {
    threads::ThreadPool Pool(JobThreads);
    std::vector<std::future<void>> Futures;
    Futures.reserve(Specs.size());
    for (const JobSpec &Spec : Specs)
      Futures.push_back(Pool.submit([&Spec, &Proto, &Events, &Writer, &DiagMu,
                                     Quiet] {
        std::vector<std::string> Diags;
        try {
          Events[Spec.Index] = runCorpusJob(Spec, Proto, Diags);
        } catch (const std::exception &Ex) {
          Events[Spec.Index].Index = Spec.Index;
          Events[Spec.Index].Name = Spec.Name;
          Events[Spec.Index].Preset = Spec.Preset;
          Events[Spec.Index].Status = "error";
          Events[Spec.Index].Error = Ex.what();
          Diags.push_back("[" + Spec.Name + "] exception: " + Ex.what());
        }
        if (Writer)
          Writer->append(Events[Spec.Index]); // streaming: completion order
        if (!Quiet && !Diags.empty()) {
          std::lock_guard<std::mutex> Lock(DiagMu);
          for (const std::string &D : Diags)
            std::fprintf(stderr, "ambatch: %s\n", D.c_str());
        }
      }));
    for (std::future<void> &F : Futures)
      F.get();
  }
  uint64_t RunWallNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Batch0)
          .count());

  fleet::Aggregate Agg = aggregateInOrder(Events);

  uint64_t NumOk = 0, NumRolledBack = 0, NumLimits = 0, NumError = 0;
  for (const fleet::JobEvent &E : Events) {
    if (E.Status == "ok")
      ++NumOk;
    else if (E.Status == "rolled_back")
      ++NumRolledBack;
    else if (E.Status == "limits")
      ++NumLimits;
    else
      ++NumError;
  }
  if (!Quiet) {
    double Secs = static_cast<double>(RunWallNs) / 1e9;
    std::fprintf(stderr,
                 "ambatch: %zu jobs in %.2fs (%.1f programs/s wall-clock, "
                 "%u thread(s)): %llu ok, %llu rolled back, %llu limits, "
                 "%llu errors\n",
                 Events.size(), Secs,
                 Secs > 0 ? static_cast<double>(Events.size()) / Secs : 0.0,
                 JobThreads, (unsigned long long)NumOk,
                 (unsigned long long)NumRolledBack,
                 (unsigned long long)NumLimits, (unsigned long long)NumError);
  }

  if (!AggregatePath.empty() && !writeAggregateFile(AggregatePath, Agg)) {
    std::fprintf(stderr, "ambatch: cannot write aggregate '%s'\n",
                 AggregatePath.c_str());
    return 1;
  }
  if (!HistoryPath.empty() &&
      !appendHistoryOrComplain(HistoryPath,
                               makeHistoryEntry(Events, Agg, JobThreads),
                               Quiet))
    return 1;

  if (NumError)
    return 2;
  if (NumLimits)
    return 4;
  if (NumRolledBack)
    return 3;
  return 0;
}
