//===- perfbench/perfbench.cpp - Repository benchmark program ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates one workload from a seed, runs it as a single-threaded closed
/// loop (one job at a time) for a fixed number of seconds, checks every
/// output against the interpreter, and prints the metrics.  A job is what
/// `amopt` / `ambatch` do per program: parseProgram -> runPipeline under a
/// fresh telemetry::Session -> printGraph.
///
/// With --trace 1 each job is additionally replayed through the library's
/// per-layer entry points with in-memory spans around every call, and the
/// per-layer self times, allocations and work counters are reported
/// instead.  See README.md next to this file for the metric definitions.
///
/// The last line of standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
//===----------------------------------------------------------------------===//

#include "analysis/PaperAnalyses.h"
#include "gen/RandomProgram.h"
#include "interp/Equivalence.h"
#include "ir/Printer.h"
#include "parser/Parser.h"
#include "support/Profiler.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "transform/AssignmentHoisting.h"
#include "transform/AssignmentMotion.h"
#include "transform/CopyPropagation.h"
#include "transform/FinalFlush.h"
#include "transform/Initialization.h"
#include "transform/LazyCodeMotion.h"
#include "transform/Normalize.h"
#include "transform/PartialDeadCodeElim.h"
#include "transform/Pipeline.h"
#include "transform/RedundantAssignElim.h"
#include "verify/FaultInjector.h"
#include "verify/GraphVerifier.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

using namespace am;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t fnv1a64(const std::string &S, uint64_t H = 0xcbf29ce484222325ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Linear-interpolated quantile (numpy's default), \p Q in [0, 1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

std::string num(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  const char *Passes;
  bool Guarded;
  unsigned Programs;
  GenOptions Gen;
};

GenOptions genOptions(unsigned Stmts, unsigned Vars, unsigned Pool) {
  GenOptions O;
  O.TargetStmts = Stmts;
  O.NumVars = Vars;
  O.PatternPoolSize = Pool;
  return O;
}

/// The three workloads; \p Small shrinks each to a few hundred statements
/// per program for the fault-injection self-test.
std::optional<Workload> findWorkload(const std::string &Name, bool Small) {
  if (Name == "uniform-20k")
    return Small ? Workload{"uniform-20k", "uniform", false, 8,
                            genOptions(400, 24, 320)}
                 : Workload{"uniform-20k", "uniform", false, 4,
                            genOptions(20000, 24, 320)};
  if (Name == "corpus-guarded")
    return Workload{"corpus-guarded", "uniform", true, Small ? 24u : 400u,
                    genOptions(200, 10, 12)};
  if (Name == "baselines-2k")
    return Small ? Workload{"baselines-2k", "lcm,cp,lcm,pde", false, 2,
                            genOptions(400, 12, 40)}
                 : Workload{"baselines-2k", "lcm,cp,lcm,pde", false, 16,
                            genOptions(2000, 12, 40)};
  return std::nullopt;
}

/// Program \p I of a workload drawn with seed \p Seed.  Program 0 uses the
/// seed itself, so seed 61 gives uniform-20k the 20k-statement program the
/// ROADMAP baseline was measured on.
uint64_t programSeed(uint64_t Seed, unsigned I) {
  return I == 0 ? Seed : splitmix64(Seed * 1000003u + I);
}

std::vector<std::string> generateTexts(const Workload &W, uint64_t Seed) {
  std::vector<std::string> Texts;
  Texts.reserve(W.Programs);
  for (unsigned I = 0; I < W.Programs; ++I)
    Texts.push_back(printGraph(generateStructuredProgram(programSeed(Seed, I),
                                                         W.Gen)));
  return Texts;
}

/// The workload's fixed interpreter inputs: \p NumInputRounds value
/// assignments per program, derived from the seed, independent of the
/// pipeline guard's own input battery.
constexpr unsigned NumInputRounds = 2;

std::unordered_map<std::string, int64_t>
fixedInputs(const FlowGraph &G, uint64_t Seed, unsigned Program,
            unsigned Round) {
  std::unordered_map<std::string, int64_t> In;
  for (uint32_t V = 0; V < G.Vars.size(); ++V) {
    uint64_t H = splitmix64(Seed ^ splitmix64(Program * 131u + Round * 7u + V));
    In[G.Vars.name(makeVarId(V))] = static_cast<int64_t>(H % 41) - 20;
  }
  return In;
}

//===----------------------------------------------------------------------===//
// Untraced job
//===----------------------------------------------------------------------===//

const char *const CounterNames[] = {
    "dfa.solves",         "dfa.blocks_processed", "dfa.transfers_recomputed",
    "dfa.solves.cached",  "dfa.solves.incremental", "dfa.sweeps",
    "am.rounds",          "am.eliminated",        "am.hoist_rounds",
    "flush.inits_deleted", "flush.inits_sunk"};
constexpr size_t NumCounters = std::size(CounterNames);

struct JobResult {
  std::string Text;
  std::string Failure; ///< Empty when the job succeeded.
  uint64_t Counters[NumCounters] = {};
};

/// One job exactly as the tools run it.  \p Counters asks for the session's
/// work counters, read before the session is destroyed.
JobResult runJob(const std::string &Src, const Workload &W, bool Counters) {
  JobResult J;
  ParseResult P = parseProgram(Src);
  if (!P.ok()) {
    J.Failure = "parse error: " + P.Error;
    return J;
  }
  telemetry::Session Session;
  PipelineOptions O;
  O.Guarded = W.Guarded;
  O.Telemetry = &Session;
  PipelineResult R = runPipeline(P.Graph, W.Passes, O);
  if (!R.ok())
    J.Failure = "pipeline: " + R.Error;
  else if (R.RollbackCount != 0)
    J.Failure = "pipeline rolled back a pass";
  J.Text = printGraph(R.Graph);
  if (Counters)
    for (size_t C = 0; C < NumCounters; ++C)
      J.Counters[C] = Session.stats().counterValue(CounterNames[C]);
  return J;
}

//===----------------------------------------------------------------------===//
// Traced replay
//===----------------------------------------------------------------------===//

enum Layer : uint8_t {
  LJob,
  LParse,
  LSession,
  LSplit,
  LPatterns,
  LSimplify,
  LEmit,
  LInit,
  LRae,
  LAht,
  LFlush,
  LRedundancy,
  LRedundancyFacts,
  LHoist,
  LHoistInsert,
  LFlushSolve,
  LFlushPlan,
  LLcm,
  LCp,
  LPde,
  LVerify,
  LEquiv,
  NumLayers
};

const char *const LayerNames[NumLayers] = {
    "job",
    "parser.parse",
    "support.session",
    "ir.split",
    "ir.patterns",
    "ir.simplify",
    "ir.emit",
    "transform.init",
    "transform.rae",
    "transform.aht",
    "transform.flush",
    "analysis.redundancy",
    "analysis.redundancy_facts",
    "analysis.hoist",
    "analysis.hoist_insert",
    "analysis.flush_solve",
    "analysis.flush_plan",
    "transform.lcm",
    "transform.cp",
    "transform.pde",
    "verify.graph",
    "interp.equiv"};

/// Mirror analyses: extra work the replay does only to time the analyses
/// on their own.  Excluded from the tracing-overhead figure.
bool isMirror(Layer L) { return L >= LRedundancy && L <= LFlushPlan; }

struct Span {
  uint64_t StartNs = 0, EndNs = 0;
  uint64_t AllocBytes = 0; ///< Heap bytes requested while open (inclusive).
  int32_t Parent = -1;
  uint32_t Job = 0;
  Layer L = LJob;
};

/// In-memory span recorder: a span per layer call, linked to the enclosing
/// span, tagged with the job id.  Written out once, at the end.
class Tracer {
public:
  template <class Fn> auto span(Layer L, Fn &&F) {
    int32_t Id = begin(L);
    struct Closer {
      Tracer &T;
      int32_t Id;
      ~Closer() { T.end(Id); }
    } C{*this, Id};
    return F();
  }

  int32_t begin(Layer L) {
    Span S;
    S.L = L;
    S.Job = Job;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.AllocBytes = prof::allocatedBytes();
    Spans.push_back(S);
    int32_t Id = static_cast<int32_t>(Spans.size() - 1);
    Open.push_back(Id);
    Spans[Id].StartNs = nowNs();
    return Id;
  }

  void end(int32_t Id) {
    uint64_t T = nowNs();
    Spans[Id].EndNs = T;
    Spans[Id].AllocBytes = prof::allocatedBytes() - Spans[Id].AllocBytes;
    Open.pop_back();
  }

  void setJob(uint32_t J) { Job = J; }
  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span: its duration minus its children's.
  std::vector<uint64_t> selfNs() const {
    std::vector<uint64_t> Self(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[I] = Spans[I].EndNs - Spans[I].StartNs;
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[S.Parent] -= S.EndNs - S.StartNs;
    return Self;
  }

  /// Chrome trace-event JSON (one complete event per span, tid = job id,
  /// args.parent = index of the enclosing span).
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    uint64_t T0 = Spans.empty() ? 0 : Spans.front().StartNs;
    Out << "{\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      Out << (I ? ",\n" : "\n") << "{\"name\":\"" << LayerNames[S.L]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Job
          << ",\"ts\":" << num((S.StartNs - T0) / 1e3)
          << ",\"dur\":" << num((S.EndNs - S.StartNs) / 1e3)
          << ",\"args\":{\"id\":" << I << ",\"parent\":" << S.Parent
          << ",\"alloc_bytes\":" << S.AllocBytes << "}}";
    }
    Out << "\n]}\n";
    return static_cast<bool>(Out);
  }

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  uint32_t Job = 0;
};

/// The guard's input battery (transform/Pipeline.cpp), reproduced so the
/// replay's interp.equiv span does the guarded pipeline's work.
std::unordered_map<std::string, int64_t> guardInputs(const FlowGraph &G,
                                                     uint64_t Round) {
  std::unordered_map<std::string, int64_t> Inputs;
  for (uint32_t V = 0; V < G.Vars.size(); ++V)
    Inputs[G.Vars.name(makeVarId(V))] =
        static_cast<int64_t>((Round * 2654435761u + V * 40503u) % 41) - 20;
  return Inputs;
}

/// The uniform pass, step by step (transform/UniformEmAm.cpp and
/// transform/AssignmentMotion.cpp), with mirror analyses run against
/// solvers that persist across rounds the way the context's do.
FlowGraph replayUniform(Tracer &T, const FlowGraph &In) {
  FlowGraph Work = T.span(LSplit, [&] {
    FlowGraph W = In;
    removeSkips(W);
    W.splitCriticalEdges();
    return W;
  });
  T.span(LInit, [&] { return runInitializationPhase(Work); });

  AmContext Ctx;
  DataflowSolver RedundancyMirror, HoistMirror;
  HoistLocalPredicates HoistLocalsMirror;
  uint64_t Sink = 0;
  for (;;) {
    T.span(LPatterns, [&] { Ctx.refreshPatterns(Work); });
    if (Ctx.patterns().size() != 0) {
      std::optional<RedundancyAnalysis> RA;
      T.span(LRedundancy, [&] {
        RA.emplace(RedundancyAnalysis::run(Work, Ctx.patterns(),
                                           RedundancyMirror,
                                           Ctx.patternGeneration()));
      });
      T.span(LRedundancyFacts, [&] {
        for (BlockId B = 0; B < Work.numBlocks(); ++B)
          Sink += RA->facts(B).Before.size();
        RA.reset();
      });
    }
    unsigned Eliminated = T.span(
        LRae, [&] { return runRedundantAssignmentElimination(Work, Ctx); });

    T.span(LPatterns, [&] { Ctx.refreshPatterns(Work); });
    if (Ctx.patterns().size() != 0) {
      std::optional<HoistabilityAnalysis> HA;
      T.span(LHoist, [&] {
        HA.emplace(HoistabilityAnalysis::run(Work, Ctx.patterns(), HoistMirror,
                                             HoistLocalsMirror,
                                             Ctx.patternGeneration()));
      });
      T.span(LHoistInsert, [&] {
        for (BlockId B = 0; B < Work.numBlocks(); ++B)
          Sink += HA->entryInsert(B).count() + HA->exitInsert(B).count();
        HA.reset();
      });
    }
    bool Hoisted =
        T.span(LAht, [&] { return runAssignmentHoisting(Work, Ctx); });
    if (Eliminated == 0 && !Hoisted)
      break;
  }

  {
    std::optional<FlushAnalysis> FA;
    T.span(LFlushSolve, [&] { FA.emplace(FlushAnalysis::run(Work)); });
    T.span(LFlushPlan, [&] {
      for (BlockId B = 0; B < Work.numBlocks(); ++B)
        Sink += FA->plan(B).InitBefore.size();
      FA.reset();
    });
  }
  T.span(LFlush, [&] { return runFinalFlush(Work); });
  volatile uint64_t Keep = Sink;
  (void)Keep;
  return T.span(LSimplify, [&] {
    FlowGraph Out = simplified(Work);
    Work = FlowGraph();
    return Out;
  });
}

/// The job replayed through the per-layer entry points.  Returns the
/// printed output, which must equal the untraced job's byte for byte.
std::string replayJob(Tracer &T, const std::string &Src, const Workload &W) {
  int32_t JobSpan = T.begin(LJob);
  std::optional<ParseResult> P;
  T.span(LParse, [&] { P.emplace(parseProgram(Src)); });
  std::optional<telemetry::Session> Session;
  std::optional<telemetry::SessionScope> Scope;
  T.span(LSession, [&] {
    Session.emplace();
    Scope.emplace(*Session);
  });

  FlowGraph Cur, Snapshot;
  std::string Text;
  bool Broken = false;
  if (W.Guarded)
    Broken = !T.span(LVerify, [&] { return verifyGraph(P->Graph).ok(); });
  if (!Broken) {
    T.span(LSplit, [&] { Cur = P->Graph; });
    // One pass at a time; the guard (when on) snapshots the pass input and
    // checks the result, as runPipeline does.
    diag::Expected<std::vector<std::string>> Passes = parsePassSpec(W.Passes);
    for (const std::string &Name : *Passes) {
      if (W.Guarded)
        T.span(LSplit, [&] { Snapshot = Cur; });
      if (Name == "uniform") {
        Cur = replayUniform(T, Cur);
      } else if (Name == "lcm") {
        Cur = T.span(LLcm, [&] { return runLazyCodeMotion(Cur); });
      } else if (Name == "cp") {
        T.span(LCp, [&] { return runCopyPropagation(Cur); });
      } else if (Name == "pde") {
        T.span(LSplit, [&] {
          if (Cur.hasCriticalEdges())
            Cur.splitCriticalEdges();
        });
        T.span(LPde, [&] { return runPartialDeadCodeElim(Cur); });
      } else {
        std::fprintf(stderr, "perfbench: no replay for pass '%s'\n",
                     Name.c_str());
        Broken = true;
        break;
      }
      if (W.Guarded) {
        Broken |= !T.span(LVerify, [&] { return verifyGraph(Cur).ok(); });
        T.span(LEquiv, [&] {
          PipelineOptions Defaults;
          Interpreter::Options IOpts;
          IOpts.MaxSteps = Defaults.EquivalenceMaxSteps;
          for (uint64_t R = 0; R < Defaults.EquivalenceRounds; ++R)
            Broken |= !checkEquivalent(Snapshot, Cur,
                                       guardInputs(Snapshot, R), R, IOpts)
                           .Equivalent;
        });
        if (Broken)
          break;
      }
    }
  }
  T.span(LEmit, [&] {
    Text = Broken ? std::string() : printGraph(Cur);
    Cur = FlowGraph();
    Snapshot = FlowGraph();
    P.reset();
  });
  T.span(LSession, [&] {
    Scope.reset();
    Session.reset();
  });
  T.end(JobSpan);
  return Text;
}

//===----------------------------------------------------------------------===//
// Main
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 61;
  double Seconds = 10.0;
  bool Trace = false;
  bool Small = false;
  std::string Inject;
  std::string SpansOut;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                 [--spans FILE] [--small] [--inject rae-flip]\n"
               "workloads: uniform-20k corpus-guarded baselines-2k\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + Flag).c_str());
      return Argv[++I];
    };
    if (Flag == "--workload")
      A.Workload = Value();
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (Flag == "--trace")
      A.Trace = Value() != "0";
    else if (Flag == "--spans")
      A.SpansOut = Value();
    else if (Flag == "--small")
      A.Small = true;
    else if (Flag == "--inject")
      A.Inject = Value();
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (A.Workload.empty())
    usage("--workload is required");
  if (!(A.Seconds > 0))
    usage("--seconds must be positive");
  if (!A.Inject.empty() && A.Inject != "rae-flip")
    usage("only --inject rae-flip is supported");
  return A;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
  std::string Note;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-28s %16s %-6s %s\n", M.Name.c_str(), num(M.Value).c_str(),
                M.Unit, M.Note.c_str());
  std::string J = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I)
    J += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
         num(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

/// Host-speed calibration.  Hosts that share caches with other tenants
/// change speed for cache-bound code by up to 1.8x for seconds at a time
/// (see README.md).  This kernel, bit-vector sweeps over 512 KB plus
/// malloc/free churn and nothing from the library, slows down with them.
/// It is timed between jobs, and each job's time is divided by the host
/// factor measured on either side of it.  It allocates through malloc, so
/// alloc_mb does not see it.
class Calibrator {
public:
  /// Kernel time on an uncontended host.
  static constexpr double RefMs = 0.9;
  /// Job time ~ kernel time^0.85: the best single fit over two ten-seed
  /// sets of all three workloads run in differently contended periods
  /// (corpus-guarded alone fits 0.7-0.85, uniform-20k alone about 1).
  static constexpr double Exponent = 0.85;

  Calibrator() : A(1u << 15), B(1u << 15, 0x5555) {}

  /// Times one kernel run and records it.
  void sample() {
    uint64_t T0 = nowNs();
    for (uint64_t R = 0; R < 32; ++R)
      for (size_t I = 0; I < A.size(); ++I)
        A[I] = (A[I] | B[I]) ^ (A[I] >> 1) ^ (R + I);
    __asm__ __volatile__("" : : "g"(A.data()) : "memory"); // keep the sweeps
    void *Ptrs[256];
    for (int R = 0; R < 64; ++R) {
      for (int I = 0; I < 256; ++I)
        Ptrs[I] = std::malloc(16 + (I * 37) % 512);
      for (void *Q : Ptrs)
        std::free(Q);
    }
    Samples.push_back((nowNs() - T0) / 1e6);
  }

  size_t numSamples() const { return Samples.size(); }

  /// Host factor for work done between samples \p I - 1 and \p I; above 1
  /// the host ran slower than the reference.
  double factor(size_t I) const {
    return std::pow(std::sqrt(Samples[I - 1] * Samples[I]) / RefMs, Exponent);
  }

  double medianFactor() const {
    std::vector<double> F;
    for (size_t I = 1; I < Samples.size(); ++I)
      F.push_back(factor(I));
    return median(F);
  }

private:
  std::vector<uint64_t> A, B;
  std::vector<double> Samples;
};

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::optional<Workload> WOpt = findWorkload(A.Workload, A.Small);
  if (!WOpt)
    usage(("unknown workload '" + A.Workload + "'").c_str());
  const Workload &W = *WOpt;
  if (!prof::allocTrackingAvailable()) {
    std::fprintf(stderr, "perfbench: allocation tracking unavailable\n");
    return 2;
  }
  threads::setGlobalThreadCount(1);
  Calibrator Cal;

  // Set-up: generate the program texts several times; report the median.
  constexpr int SetupReps = 7;
  std::vector<std::string> Texts;
  std::vector<double> SetupS, RawSetupS;
  for (int I = 0; I < SetupReps; ++I) {
    Cal.sample();
    uint64_t T0 = nowNs();
    Texts = generateTexts(W, A.Seed);
    RawSetupS.push_back((nowNs() - T0) / 1e9);
    Cal.sample();
    SetupS.push_back(RawSetupS.back() / Cal.factor(Cal.numSamples() - 1));
  }
  const size_t NumJobs = Texts.size();
  uint64_t InputInstrs = 0;
  std::vector<FlowGraph> Inputs;
  for (const std::string &Src : Texts) {
    ParseResult P = parseProgram(Src);
    if (!P.ok()) {
      std::fprintf(stderr, "perfbench: generated program does not parse: %s\n",
                   P.Error.c_str());
      return 2;
    }
    InputInstrs += P.Graph.numInstrs();
    Inputs.push_back(std::move(P.Graph));
  }

  std::optional<fault::FaultInjector> Injector;
  if (!A.Inject.empty()) {
    Injector.emplace();
    Injector->arm(fault::FaultClass::RaeFlipBit, 0);
    Injector->install();
  }

  std::printf("perfbench %s seed %llu: %zu programs, %llu instrs, passes %s%s, "
              "%s\n",
              W.Name, static_cast<unsigned long long>(A.Seed), NumJobs,
              static_cast<unsigned long long>(InputInstrs), W.Passes,
              W.Guarded ? " (guarded)" : "",
              A.Trace ? "traced replay" : "untraced");

  // Closed loop: reps of the whole workload, one job at a time, while the
  // next rep still fits in --seconds (at least one rep).  Every rep must
  // reproduce rep 0's outputs exactly.  The calibration kernel runs after
  // every 25 ms of jobs and at the end of each rep, outside job timings.
  std::vector<std::string> Outputs(NumJobs);
  std::vector<std::string> Failures(NumJobs);
  struct Exec {
    size_t Job;
    double Ns;
    size_t CalAfter; ///< Index of the calibration sample that follows.
  };
  std::vector<Exec> Execs;
  std::vector<double> RepAllocMb;
  size_t Reps = 0;
  uint64_t Attempted = 0;
  bool ReplayMismatch = false;
  Tracer T;
  double TracedNs = 0, MirrorNs = 0, UntracedNs = 0;
  std::vector<std::array<double, NumLayers>> RepLayerMs;
  std::vector<std::array<double, NumLayers>> RepLayerAllocMb;
  std::vector<std::array<uint64_t, NumCounters>> RepCounters;

  const uint64_t Start = nowNs();
  const uint64_t Deadline = Start + static_cast<uint64_t>(A.Seconds * 1e9);
  Cal.sample();
  for (unsigned Rep = 0;; ++Rep) {
    const uint64_t RepStart = nowNs();
    size_t Uncalibrated = Execs.size();
    uint64_t SinceCal = 0;
    uint64_t Alloc0 = prof::allocatedBytes();
    size_t FirstSpan = T.spans().size();
    std::array<uint64_t, NumCounters> Counters{};
    for (size_t J = 0; J < NumJobs; ++J) {
      if (Injector)
        Injector->resetCounters();
      uint64_t T0 = nowNs();
      JobResult R = runJob(Texts[J], W, A.Trace);
      uint64_t Ns = nowNs() - T0;
      Execs.push_back({J, static_cast<double>(Ns), 0});
      ++Attempted;
      if (Rep == 0) {
        Outputs[J] = R.Text;
        Failures[J] = R.Failure;
      } else if (R.Text != Outputs[J] && Failures[J].empty()) {
        Failures[J] = "output differs between reps";
      }
      if (A.Trace) {
        UntracedNs += static_cast<double>(Ns);
        for (size_t C = 0; C < NumCounters; ++C)
          Counters[C] += R.Counters[C];
        T.setJob(static_cast<uint32_t>(Rep * NumJobs + J));
        if (replayJob(T, Texts[J], W) != R.Text && !ReplayMismatch) {
          ReplayMismatch = true;
          std::fprintf(stderr,
                       "perfbench: traced replay of program %zu differs from "
                       "the untraced job\n",
                       J);
        }
      }
      SinceCal += Ns;
      if (SinceCal >= 25'000'000 || J + 1 == NumJobs) {
        Cal.sample();
        for (; Uncalibrated < Execs.size(); ++Uncalibrated)
          Execs[Uncalibrated].CalAfter = Cal.numSamples() - 1;
        SinceCal = 0;
      }
    }
    // Calibration allocates through malloc, so this is the jobs' (and in
    // a traced run, the replays') allocation alone.
    RepAllocMb.push_back((prof::allocatedBytes() - Alloc0) / 1e6);
    ++Reps;
    if (A.Trace) {
      std::vector<uint64_t> Self = T.selfNs();
      std::array<double, NumLayers> Ms{}, AllocMb{};
      for (size_t I = FirstSpan; I < T.spans().size(); ++I) {
        const Span &S = T.spans()[I];
        Ms[S.L] += Self[I] / 1e6;
        if (S.L == LJob)
          TracedNs += static_cast<double>(S.EndNs - S.StartNs);
        else
          AllocMb[S.L] += S.AllocBytes / 1e6;
        if (isMirror(S.L))
          MirrorNs += static_cast<double>(Self[I]);
      }
      RepLayerMs.push_back(Ms);
      RepLayerAllocMb.push_back(AllocMb);
      RepCounters.push_back(Counters);
    }
    uint64_t Now = nowNs();
    if (Now + (Now - RepStart) > Deadline)
      break;
  }
  const double MeasuredS = (nowNs() - Start) / 1e9;

  // Correctness: every output must parse and behave like its input on the
  // workload's fixed inputs (the interpreter is the reference).
  uint64_t OutInstrs = 0, DynExpr = 0, DynAssign = 0, InExpr = 0, InAssign = 0;
  uint64_t Digest = 0xcbf29ce484222325ull;
  for (size_t J = 0; J < NumJobs; ++J) {
    Digest = fnv1a64(Outputs[J], Digest);
    if (!Failures[J].empty())
      continue;
    ParseResult Out = parseProgram(Outputs[J]);
    if (!Out.ok()) {
      Failures[J] = "output does not parse: " + Out.Error;
      continue;
    }
    OutInstrs += Out.Graph.numInstrs();
    for (unsigned R = 0; R < NumInputRounds; ++R) {
      EquivalenceReport E = checkEquivalent(
          Inputs[J], Out.Graph,
          fixedInputs(Inputs[J], A.Seed, static_cast<unsigned>(J), R), R);
      if (!E.Equivalent || !E.Lhs.finished() || !E.Rhs.finished()) {
        Failures[J] = "output not equivalent to input (inputs " +
                      std::to_string(R) + "): " +
                      (E.Detail.empty() ? "did not finish" : E.Detail);
        break;
      }
      DynExpr += E.Rhs.Stats.ExprEvaluations;
      DynAssign += E.Rhs.Stats.AssignExecutions;
      InExpr += E.Lhs.Stats.ExprEvaluations;
      InAssign += E.Lhs.Stats.AssignExecutions;
    }
  }
  // A job whose output is wrong failed in every rep.
  uint64_t Failed = 0;
  for (size_t J = 0; J < NumJobs; ++J)
    if (!Failures[J].empty()) {
      Failed += Reps;
      std::fprintf(stderr, "perfbench: program %zu failed: %s\n", J,
                   Failures[J].c_str());
    }

  char DigestHex[17];
  std::snprintf(DigestHex, sizeof(DigestHex), "%016llx",
                static_cast<unsigned long long>(Digest));
  std::printf("  output digest %s over %zu outputs; %zu reps in %.2f s; "
              "host speed factor %.3f (calibration median / %.1f ms)\n",
              DigestHex, NumJobs, Reps, MeasuredS, Cal.medianFactor(),
              Calibrator::RefMs);

  std::vector<Metric> Ms;
  bool Correct = Failed == 0 && !ReplayMismatch;
  if (!A.Trace) {
    // Each job's time is divided by the host factor around it; a job's
    // latency is the median over reps, which drops short host stalls.
    std::vector<std::vector<double>> Scaled(NumJobs), Raw(NumJobs);
    for (const Exec &E : Execs) {
      Scaled[E.Job].push_back(E.Ns / 1e6 / Cal.factor(E.CalAfter));
      Raw[E.Job].push_back(E.Ns / 1e6);
    }
    std::vector<double> JobMs, RawJobMs;
    double RepMs = 0, RawRepMs = 0;
    for (size_t J = 0; J < NumJobs; ++J) {
      JobMs.push_back(median(Scaled[J]));
      RawJobMs.push_back(median(Raw[J]));
      RepMs += JobMs.back();
      RawRepMs += RawJobMs.back();
    }
    std::string JobNote = "(" + std::to_string(NumJobs) + " jobs x " +
                          std::to_string(Reps) + " reps; raw " +
                          num(quantile(RawJobMs, 0.5)) + " / " +
                          num(quantile(RawJobMs, 0.9)) + " ms)";
    Ms = {
        {"setup_s", median(SetupS), "s",
         "(median of " + std::to_string(SetupReps) + " set-ups; raw " +
             num(median(RawSetupS)) + " s)"},
        {"instrs_per_s", InputInstrs / (RepMs / 1e3), "1/s",
         "(raw " + num(InputInstrs / (RawRepMs / 1e3)) + " 1/s)"},
        {"job_ms_p50", quantile(JobMs, 0.5), "ms", JobNote},
        {"job_ms_p90", quantile(JobMs, 0.9), "ms", ""},
        {"peak_rss_mb", prof::peakRssBytes() / 1e6, "MB", ""},
        // Rep 0 exists in every run, so this count repeats exactly; later
        // reps differ only by one-time allocations (about 1 MB in 8 GB).
        {"alloc_mb", RepAllocMb.front(), "MB", "(rep 0)"},
        {"out_instrs_ratio", static_cast<double>(OutInstrs) / InputInstrs,
         "ratio", "(" + std::to_string(OutInstrs) + " out instrs)"},
        {"dyn_expr_evals_ratio", static_cast<double>(DynExpr) / InExpr,
         "ratio", "(" + std::to_string(DynExpr) + " of " +
                      std::to_string(InExpr) + " evaluations)"},
        {"dyn_assigns_ratio", static_cast<double>(DynAssign) / InAssign,
         "ratio", "(" + std::to_string(DynAssign) + " of " +
                      std::to_string(InAssign) + " executions)"},
    };
    std::printf("  %-28s %16s\n", "failed_frac",
                num(static_cast<double>(Failed) / Attempted).c_str());
  } else {
    std::array<std::vector<double>, NumLayers> LayerMs, LayerAlloc;
    for (size_t R = 0; R < Reps; ++R)
      for (size_t L = 0; L < NumLayers; ++L) {
        LayerMs[L].push_back(RepLayerMs[R][L]);
        LayerAlloc[L].push_back(RepLayerAllocMb[R][L]);
      }
    auto LayerMetric = [&](Layer L) {
      Ms.push_back({std::string(LayerNames[L]) + "_ms", median(LayerMs[L]),
                    "ms", "(self, per rep)"});
    };
    auto AllocMetric = [&](Layer L) {
      std::string N = LayerNames[L];
      Ms.push_back({L == LParse ? "parser.alloc_mb" : N + "_alloc_mb",
                    median(LayerAlloc[L]), "MB", "(per rep)"});
    };
    LayerMetric(LParse);
    AllocMetric(LParse);
    for (Layer L : {LSplit, LPatterns, LSimplify, LEmit})
      LayerMetric(L);
    for (Layer L : {LInit, LRae, LAht, LFlush}) {
      LayerMetric(L);
      AllocMetric(L);
    }
    for (Layer L : {LRedundancy, LRedundancyFacts, LHoist, LHoistInsert,
                    LFlushSolve, LFlushPlan, LLcm, LCp, LPde, LVerify, LEquiv,
                    LSession})
      LayerMetric(L);
    for (size_t C = 0; C < NumCounters; ++C)
      Ms.push_back({CounterNames[C],
                    static_cast<double>(RepCounters.back()[C]), "count",
                    "(per rep)"});

    // Coverage: the named layers' self time over traced job wall time.
    double Covered = 0;
    for (size_t R = 0; R < Reps; ++R)
      for (size_t L = 1; L < NumLayers; ++L)
        Covered += RepLayerMs[R][L] * 1e6;
    double Coverage = 100.0 * Covered / TracedNs;
    Ms.push_back({"trace.coverage_pct", Coverage, "%",
                  "(named layers' self time / traced job time)"});
    Ms.push_back({"trace.overhead_pct",
                  100.0 * (TracedNs - MirrorNs - UntracedNs) / UntracedNs, "%",
                  "(traced job minus mirror analyses, vs untraced job)"});
    for (size_t C = 0; C < NumCounters; ++C)
      for (size_t R = 1; R < Reps; ++R)
        if (RepCounters[R][C] != RepCounters[0][C]) {
          std::fprintf(stderr, "perfbench: counter %s differs between reps\n",
                       CounterNames[C]);
          Correct = false;
        }
    if (Coverage < 95.0) {
      std::fprintf(stderr,
                   "perfbench: layers cover only %.2f%% of traced job time\n",
                   Coverage);
      Correct = false;
    }
    if (!A.SpansOut.empty() && !T.write(A.SpansOut)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   A.SpansOut.c_str());
      Correct = false;
    }
  }
  printResult(Correct, Attempted, Failed, Ms);
  return Correct ? 0 : 1;
}
