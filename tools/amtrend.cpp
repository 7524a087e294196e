//===- tools/amtrend.cpp - Run-history trend analytics ---------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// amtrend — the longitudinal layer over the amhist-v1 run history that
// ambench/ambatch --history grow: per-preset and per-counter time
// series, robust step/changepoint detection that tells genuine
// regressions from machine noise (the calibration series identifies
// machine events; normalized wall cancels CPU speed), and a CI gate.
//
//   amtrend --history=F.jsonl [--gate] [--factor=X] [--kmad=X]
//           [--min-seg=N] [--top=K] [--quiet]
//
// Exit codes: 0 no gate failure; 1 at least one series regressed
// (step up of ratio >= --factor) — only with --gate; 2 usage, I/O or
// schema error.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"
#include "support/History.h"
#include "support/Trend.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace am;

namespace {

bool parsePositive(const std::string &S, double &Out) {
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (!End || *End != '\0' || V <= 0)
    return false;
  Out = V;
  return true;
}

std::string fmtVal(double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.4g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  std::string HistoryPath, FactorSpec, KMadSpec, MinSegSpec, TopSpec;
  bool Gate = false, Quiet = false;

  support::ArgParser Parser(
      "amtrend",
      "Turns the amhist-v1 run history into per-preset / per-counter\n"
      "time series with robust changepoint detection, a ranked text\n"
      "report, and a CI gate.  --gate fails when any gateable series\n"
      "steps up by >= the gate factor; calibration and workload-shape\n"
      "series never gate.\n"
      "Exit codes: 0 ok, 1 regression, 2 usage/io/schema.");
  // A usage error prints the help on stderr and exits 2.
  auto Usage = [&Parser] {
    std::fputs(Parser.helpText().c_str(), stderr);
    return 2;
  };
  Parser.option("--history", HistoryPath, "the amhist-v1 run history to read",
                "F.jsonl");
  Parser.flag("--gate", Gate,
              "exit 1 when any gateable series regressed (step >= factor)");
  Parser.option("--factor", FactorSpec,
                "gate ratio: a step up of After/Before >= X fails "
                "(default 1.5)",
                "X");
  Parser.option("--kmad", KMadSpec,
                "detection threshold in noise units (default 4.0)", "X");
  Parser.option("--min-seg", MinSegSpec,
                "minimum points per segment around a step (default 3)", "N");
  Parser.option("--top", TopSpec,
                "series lines in the text report (default 20)", "K");
  Parser.flag("--quiet", Quiet,
              "print only gate failures (and errors) on stderr");
  if (!Parser.parse(argc, argv)) {
    std::fprintf(stderr, "amtrend: %s\n", Parser.error().c_str());
    return Usage();
  }
  if (Parser.helpRequested()) {
    std::fputs(Parser.helpText().c_str(), stdout);
    return 0;
  }
  if (HistoryPath.empty() || !Parser.positional().empty()) {
    std::fprintf(stderr, "amtrend: --history=F.jsonl is required\n");
    return Usage();
  }

  trend::TrendOptions Opts;
  if (!FactorSpec.empty() && !parsePositive(FactorSpec, Opts.GateFactor)) {
    std::fprintf(stderr, "amtrend: bad --factor '%s'\n", FactorSpec.c_str());
    return Usage();
  }
  if (!KMadSpec.empty() && !parsePositive(KMadSpec, Opts.Step.KMad)) {
    std::fprintf(stderr, "amtrend: bad --kmad '%s'\n", KMadSpec.c_str());
    return Usage();
  }
  if (!MinSegSpec.empty()) {
    char *End = nullptr;
    long V = std::strtol(MinSegSpec.c_str(), &End, 10);
    if (!End || *End != '\0' || V <= 0) {
      std::fprintf(stderr, "amtrend: bad --min-seg '%s'\n", MinSegSpec.c_str());
      return Usage();
    }
    Opts.Step.MinSeg = static_cast<unsigned>(V);
  }
  unsigned TopK = 20;
  if (!TopSpec.empty()) {
    char *End = nullptr;
    long V = std::strtol(TopSpec.c_str(), &End, 10);
    if (!End || *End != '\0' || V <= 0) {
      std::fprintf(stderr, "amtrend: bad --top '%s'\n", TopSpec.c_str());
      return Usage();
    }
    TopK = static_cast<unsigned>(V);
  }

  hist::HistoryFile H;
  std::string Err;
  if (!hist::readHistoryFile(HistoryPath, H, &Err)) {
    std::fprintf(stderr, "amtrend: %s\n", Err.c_str());
    return 2;
  }
  if (!Quiet)
    for (const std::string &W : H.Warnings)
      std::fprintf(stderr, "amtrend: warning: %s\n", W.c_str());
  hist::sortByTime(H);

  trend::TrendAnalysis A = trend::analyzeHistory(H.Entries, Opts);
  std::vector<const trend::SeriesVerdict *> Failures = trend::gateFailures(A);

  if (!Quiet) {
    std::printf("# amtrend: %zu entr(ies) in %s, %zu series, gate factor "
                "%.2fx%s\n",
                H.Entries.size(), HistoryPath.c_str(), A.Verdicts.size(),
                Opts.GateFactor, Gate ? " (gating)" : "");
    if (A.CalibrationStepped)
      std::printf("# machine event: the calibration series stepped — raw "
                  "wall changes near it are machine, not code\n");
    std::printf("%-9s %-36s %6s %10s %10s %8s\n", "status", "series", "n",
                "before", "after", "change");
    unsigned Shown = 0;
    for (const trend::SeriesVerdict &V : A.Verdicts) {
      if (Shown >= TopK)
        break;
      ++Shown;
      char Change[24];
      if (V.CP.Found)
        std::snprintf(Change, sizeof(Change), "%.2fx", V.CP.Ratio);
      else if (V.Status == trend::SeriesStatus::Drifting)
        std::snprintf(Change, sizeof(Change), "%+.0f%%", V.DriftRel * 100.0);
      else
        std::snprintf(Change, sizeof(Change), "-");
      std::printf("%-9s %-36s %6zu %10s %10s %8s\n",
                  trend::statusName(V.Status), V.S.Name.c_str(),
                  V.S.Values.size(),
                  V.CP.Found ? fmtVal(V.CP.Before).c_str() : "-",
                  V.CP.Found ? fmtVal(V.CP.After).c_str() : "-", Change);
    }
    if (A.Verdicts.size() > Shown)
      std::printf("# (+%zu more series; raise --top to see them)\n",
                  A.Verdicts.size() - Shown);
    for (const std::string &N : A.Notes)
      std::printf("# note: %s\n", N.c_str());
  }

  for (const trend::SeriesVerdict *V : Failures) {
    std::string At;
    if (V->CP.Index < V->S.Entries.size()) {
      size_t EI = V->S.Entries[V->CP.Index];
      if (EI < H.Entries.size() && !H.Entries[EI].GitSha.empty())
        At = " first bad commit " + H.Entries[EI].GitSha;
    }
    std::fprintf(stderr,
                 "amtrend: REGRESSION: %s stepped %s -> %s (%.2fx >= "
                 "%.2fx) at run %zu%s\n",
                 V->S.Name.c_str(), fmtVal(V->CP.Before).c_str(),
                 fmtVal(V->CP.After).c_str(), V->CP.Ratio, Opts.GateFactor,
                 V->CP.Index, At.c_str());
  }

  if (Gate && !Failures.empty())
    return 1;
  return 0;
}
