//===- report/FleetReport.cpp - Fleet dashboard & corpus diff ------------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "report/FleetReport.h"
#include "support/Aggregate.h"
#include "support/EventLog.h"
#include "support/Html.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

using namespace am;
using namespace am::report;
using am::fleet::Aggregate;
using am::fleet::DiffRow;
using am::fleet::EventLogFile;
using am::fleet::Histogram;
using am::fleet::JobEvent;
using am::fleet::MetricAgg;

namespace {

//===----------------------------------------------------------------------===//
// Style: role tokens from the validated reference palette.  Single-series
// charts use the sequential blue; statuses use the fixed status palette
// (always icon+label, never color alone); all text wears text tokens.
//===----------------------------------------------------------------------===//

const char *FleetCss = R"css(
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --good: #0ca30c; --warn: #fab219; --serious: #ec835a; --critical: #d03b3b;
  --delta-up: #b42a2a; --delta-down: #006300;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
    --delta-up: #e66767; --delta-down: #0ca30c;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink-1);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 2px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 18px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 14px 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { min-width: 130px; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .note { color: var(--ink-muted); font-size: 12px; }
.hero .value { font-size: 48px; }
.status-dot {
  display: inline-block; width: 9px; height: 9px; border-radius: 50%;
  margin-right: 6px; vertical-align: 1px;
}
table { border-collapse: collapse; width: 100%; }
th, td {
  text-align: left; padding: 5px 10px 5px 0;
  border-bottom: 1px solid var(--grid); vertical-align: baseline;
}
th { color: var(--ink-2); font-weight: 500; font-size: 12px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
td.mono { font-family: ui-monospace, monospace; font-size: 12px;
          color: var(--ink-2); }
.delta-up { color: var(--delta-up); }
.delta-down { color: var(--delta-down); }
.muted { color: var(--ink-muted); }
.charts { display: flex; flex-wrap: wrap; gap: 16px; }
.chart-title { font-size: 13px; color: var(--ink-2); margin-bottom: 4px; }
.chart-note { font-size: 11px; color: var(--ink-muted); }
svg text { fill: var(--ink-muted); font: 10px system-ui, sans-serif; }
svg .cap { fill: var(--ink-2); }
svg .col { fill: var(--series-1); }
svg .col:hover { opacity: 0.85; }
svg .base { stroke: var(--baseline); stroke-width: 1; }
)css";

std::string fmtNs(double Ns) {
  char Buf[48];
  if (Ns >= 1e9)
    std::snprintf(Buf, sizeof(Buf), "%.2f s", Ns / 1e9);
  else if (Ns >= 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.2f ms", Ns / 1e6);
  else if (Ns >= 1e3)
    std::snprintf(Buf, sizeof(Buf), "%.1f µs", Ns / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%.0f ns", Ns);
  return Buf;
}

std::string fmtNum(double V) {
  char Buf[48];
  if (V >= 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.2fM", V / 1e6);
  else if (V >= 1e4)
    std::snprintf(Buf, sizeof(Buf), "%.1fK", V / 1e3);
  else if (V == std::floor(V) && std::fabs(V) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
  else
    std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

const char *statusVar(const std::string &S) {
  if (S == "ok")
    return "var(--good)";
  if (S == "rolled_back")
    return "var(--serious)";
  if (S == "limits")
    return "var(--warn)";
  return "var(--critical)";
}

void appendTile(std::string &Out, const std::string &Label,
                const std::string &Value, const std::string &Note,
                bool Hero = false) {
  Out += Hero ? "<div class=\"card tile hero\">" : "<div class=\"card tile\">";
  html::appendTag(Out, "div", Label, "label");
  html::appendTag(Out, "div", Value, "value");
  if (!Note.empty())
    html::appendTag(Out, "div", Note, "note");
  Out += "</div>";
}

/// One column with a 4px-rounded data end and a square baseline.
void appendColumn(std::string &Out, double X, double YTop, double W, double H,
                  double YBase, const std::string &Tooltip) {
  double R = std::min({4.0, W / 2.0, H});
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "<path class=\"col\" d=\"M%.1f %.1f L%.1f %.1f Q%.1f %.1f "
                "%.1f %.1f L%.1f %.1f Q%.1f %.1f %.1f %.1f L%.1f %.1f Z\">",
                X, YBase, X, YTop + R, X, YTop, X + R, YTop, X + W - R, YTop,
                X + W, YTop, X + W, YTop + R, X + W, YBase);
  Out += Buf;
  html::appendTag(Out, "title", Tooltip);
  Out += "</path>";
}

/// A log2-bucket column chart over \p H's occupied range.  \p Unit: true
/// renders bucket bounds as durations, false as plain counts.
void appendHistogramSvg(std::string &Out, const Histogram &H, bool NsUnits) {
  size_t Lo = Histogram::NumBuckets, Hi = 0;
  uint64_t Peak = 0;
  for (size_t B = 0; B < Histogram::NumBuckets; ++B)
    if (uint64_t N = H.bucket(B)) {
      Lo = std::min(Lo, B);
      Hi = std::max(Hi, B);
      Peak = std::max(Peak, N);
    }
  if (Peak == 0) {
    Out += "<div class=\"chart-note\">no samples</div>";
    return;
  }
  // Keep the chart readable: at most 24 columns, preferring the top end.
  if (Hi - Lo + 1 > 24)
    Lo = Hi - 23;
  size_t NCols = Hi - Lo + 1;
  double W = 14.0, Gap = 2.0, PlotH = 86.0, TopPad = 14.0, BotPad = 16.0;
  double Width = NCols * (W + Gap) + Gap;
  double YBase = TopPad + PlotH;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "<svg width=\"%.0f\" height=\"%.0f\" role=\"img\">", Width,
                YBase + BotPad);
  Out += Buf;
  for (size_t B = Lo; B <= Hi; ++B) {
    uint64_t N = H.bucket(B);
    double X = Gap + (B - Lo) * (W + Gap);
    if (N == 0)
      continue;
    double ColH =
        std::max(1.5, PlotH * static_cast<double>(N) / static_cast<double>(Peak));
    double BucketLo = std::pow(2.0, static_cast<double>(B));
    std::string Range = NsUnits
                            ? fmtNs(BucketLo) + " – " + fmtNs(BucketLo * 2)
                            : fmtNum(BucketLo) + " – " + fmtNum(BucketLo * 2);
    appendColumn(Out, X, YBase - ColH, W, ColH, YBase,
                 Range + ": " + std::to_string(N) + " samples");
    if (N == Peak) { // label the mode only — selective, not exhaustive
      std::snprintf(Buf, sizeof(Buf),
                    "<text class=\"cap\" x=\"%.1f\" y=\"%.1f\" "
                    "text-anchor=\"middle\">%llu</text>",
                    X + W / 2, YBase - ColH - 3, (unsigned long long)N);
      Out += Buf;
    }
  }
  std::snprintf(Buf, sizeof(Buf),
                "<line class=\"base\" x1=\"0\" y1=\"%.1f\" x2=\"%.0f\" "
                "y2=\"%.1f\"/>",
                YBase + 0.5, Width, YBase + 0.5);
  Out += Buf;
  // Axis: the range ends, in the bucket unit.
  double LoV = std::pow(2.0, static_cast<double>(Lo));
  double HiV = std::pow(2.0, static_cast<double>(Hi + 1));
  std::snprintf(Buf, sizeof(Buf), "<text x=\"2\" y=\"%.1f\">%s</text>",
                YBase + 12, (NsUnits ? fmtNs(LoV) : fmtNum(LoV)).c_str());
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"end\">%s</text>",
                Width - 2, YBase + 12,
                (NsUnits ? fmtNs(HiV) : fmtNum(HiV)).c_str());
  Out += Buf;
  Out += "</svg>";
}

void beginDocument(std::string &Out, const std::string &Title) {
  Out += "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">";
  html::appendTag(Out, "title", Title);
  Out += "<style>";
  Out += FleetCss;
  Out += "</style></head><body>";
}

void appendStatusTiles(std::string &Out,
                       const std::map<std::string, uint64_t> &Statuses) {
  for (const auto &[S, N] : Statuses) {
    Out += "<div class=\"card tile\"><div class=\"label\">"
           "<span class=\"status-dot\" style=\"background:";
    Out += statusVar(S);
    Out += "\"></span>";
    html::appendEscaped(Out, S);
    Out += "</div>";
    html::appendTag(Out, "div", std::to_string(N), "value");
    Out += "</div>";
  }
}

std::string jobLabel(const JobEvent &E) {
  return E.Name + " (" + E.Hash.substr(0, 8) + ")";
}

uint64_t counterOf(const JobEvent &E, const std::string &Name) {
  for (const auto &[N, V] : E.Counters)
    if (N == Name)
      return V;
  return 0;
}

} // namespace

std::string report::renderFleetDashboard(const EventLogFile &Log,
                                         const Aggregate &Agg,
                                         const FleetReportOptions &Opts) {
  std::string Out;
  beginDocument(Out, Opts.Title);
  html::appendTag(Out, "h1", Opts.Title);
  {
    std::string Sub = "amevents-v1 · passes: " + Log.Passes + " · " +
                      std::to_string(Log.Events.size()) + " jobs";
    if (Log.SkippedLines)
      Sub += " · " + std::to_string(Log.SkippedLines) + " line(s) skipped";
    html::appendTag(Out, "p", Sub, "sub");
  }

  // Per-preset + whole-run work sums (wall facts come from the raw event
  // log — the machine-specific layer; the aggregate stays time-free).
  struct PresetSums {
    uint64_t Jobs = 0;
    uint64_t WallNs = 0;
  };
  std::map<std::string, PresetSums> Presets;
  uint64_t TotalWallNs = 0;
  for (const JobEvent &E : Log.Events) {
    PresetSums &P = Presets[E.Preset];
    ++P.Jobs;
    P.WallNs += E.WallNs;
    TotalWallNs += E.WallNs;
  }

  Out += "<div class=\"tiles\">";
  appendTile(Out, "programs", std::to_string(Log.Events.size()), "", true);
  if (TotalWallNs) {
    double PerCore = static_cast<double>(Log.Events.size()) /
                     (static_cast<double>(TotalWallNs) / 1e9);
    appendTile(Out, "throughput (per core)", fmtNum(PerCore) + "/s",
               "jobs ÷ summed job wall");
  }
  if (Opts.RunWallNs) {
    double WallClock = static_cast<double>(Log.Events.size()) /
                       (static_cast<double>(Opts.RunWallNs) / 1e9);
    appendTile(Out, "throughput (wall clock)", fmtNum(WallClock) + "/s",
               std::to_string(Opts.Threads) + " worker thread(s)");
  }
  appendStatusTiles(Out, Agg.statuses());
  // Reader data loss belongs in the status strip, not just the subtitle:
  // a corpus missing records must not read as a smaller healthy corpus.
  if (Agg.skippedLines())
    appendTile(Out, "skipped lines", std::to_string(Agg.skippedLines()),
               "event-log records lost");
  Out += "</div>";

  html::appendTag(Out, "h2", "Per-preset throughput");
  Out += "<div class=\"card\"><table><tr><th>preset</th>"
         "<th class=\"num\">jobs</th><th class=\"num\">total job wall</th>"
         "<th class=\"num\">programs/s (per core)</th><th></th></tr>";
  double MaxRate = 0;
  for (const auto &[Name, P] : Presets)
    if (P.WallNs)
      MaxRate = std::max(MaxRate, static_cast<double>(P.Jobs) /
                                      (static_cast<double>(P.WallNs) / 1e9));
  for (const auto &[Name, P] : Presets) {
    double Rate = P.WallNs ? static_cast<double>(P.Jobs) /
                                 (static_cast<double>(P.WallNs) / 1e9)
                           : 0.0;
    Out += "<tr><td>";
    html::appendEscaped(Out, Name.empty() ? "(none)" : Name);
    Out += "</td><td class=\"num\">" + std::to_string(P.Jobs) + "</td>";
    Out += "<td class=\"num\">" +
           html::escaped(fmtNs(static_cast<double>(P.WallNs))) + "</td>";
    Out += "<td class=\"num\">" + html::escaped(fmtNum(Rate)) + "</td><td>";
    // One-series magnitude bar (sequential hue), rounded data end.
    double Frac = MaxRate > 0 ? Rate / MaxRate : 0.0;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "<svg width=\"160\" height=\"14\"><rect class=\"col\" "
                  "x=\"0\" y=\"2\" width=\"%.1f\" height=\"10\" rx=\"4\"/>"
                  "</svg>",
                  std::max(2.0, 160.0 * Frac));
    Out += Buf;
    Out += "</td></tr>";
  }
  Out += "</table></div>";

  // Phase-time histograms from the raw per-job phase timings.
  std::map<std::string, Histogram> PhaseHists;
  std::map<std::string, uint64_t> PhaseTotals;
  for (const JobEvent &E : Log.Events)
    for (const auto &[Phase, Ns] : E.Phases) {
      PhaseHists[Phase].add(Ns);
      PhaseTotals[Phase] += Ns;
    }
  Histogram JobWall;
  for (const JobEvent &E : Log.Events)
    JobWall.add(E.WallNs);
  html::appendTag(Out, "h2", "Phase-time distributions");
  Out += "<div class=\"charts\">";
  auto PhaseCard = [&Out](const std::string &Name, const Histogram &H,
                          uint64_t TotalNs) {
    Out += "<div class=\"card\">";
    html::appendTag(Out, "div", Name, "chart-title");
    appendHistogramSvg(Out, H, /*NsUnits=*/true);
    std::string Note = std::to_string(H.count()) + " samples · total " +
                       fmtNs(static_cast<double>(TotalNs)) + " · p50 " +
                       fmtNs(static_cast<double>(H.percentile(0.5))) +
                       " · p95 " +
                       fmtNs(static_cast<double>(H.percentile(0.95))) +
                       " · p99 " +
                       fmtNs(static_cast<double>(H.percentile(0.99)));
    html::appendTag(Out, "div", Note, "chart-note");
    Out += "</div>";
  };
  PhaseCard("job wall time", JobWall, TotalWallNs);
  unsigned Shown = 0;
  for (const auto &[Phase, H] : PhaseHists) {
    if (++Shown > 8) { // no silent cap: say what was folded away
      html::appendTag(Out, "div",
                      "(+" +
                          std::to_string(PhaseHists.size() - (Shown - 1)) +
                          " more phases in the event log)",
                      "chart-note");
      break;
    }
    PhaseCard(Phase, H, PhaseTotals[Phase]);
  }
  Out += "</div>";

  // Top-K tables over the raw events.
  auto JobTable = [&Out](const std::vector<const JobEvent *> &Rows) {
    Out += "<div class=\"card\"><table><tr><th>program</th><th>preset</th>"
           "<th>status</th><th class=\"num\">wall</th>"
           "<th class=\"num\">rollbacks</th><th class=\"num\">instrs</th>"
           "</tr>";
    for (const JobEvent *E : Rows) {
      Out += "<tr><td>";
      html::appendEscaped(Out, E->Name);
      Out += " <span class=\"mono\">";
      html::appendEscaped(Out, E->Hash.substr(0, 8));
      Out += "</span></td><td>";
      html::appendEscaped(Out, E->Preset);
      Out += "</td><td><span class=\"status-dot\" style=\"background:";
      Out += statusVar(E->Status);
      Out += "\"></span>";
      html::appendEscaped(Out, E->Status);
      Out += "</td><td class=\"num\">" +
             html::escaped(fmtNs(static_cast<double>(E->WallNs))) + "</td>";
      Out += "<td class=\"num\">" + std::to_string(E->Rollbacks) + "</td>";
      Out += "<td class=\"num\">" + std::to_string(E->InstrsBefore) +
             " → " + std::to_string(E->InstrsAfter) + "</td></tr>";
    }
    Out += "</table></div>";
  };

  std::vector<const JobEvent *> ByWall;
  ByWall.reserve(Log.Events.size());
  for (const JobEvent &E : Log.Events)
    ByWall.push_back(&E);
  std::stable_sort(ByWall.begin(), ByWall.end(),
                   [](const JobEvent *A, const JobEvent *B) {
                     return A->WallNs > B->WallNs;
                   });
  if (ByWall.size() > Opts.TopK)
    ByWall.resize(Opts.TopK);
  html::appendTag(Out, "h2",
                  "Slowest programs (top " +
                      std::to_string(ByWall.size()) + ")");
  JobTable(ByWall);

  std::vector<const JobEvent *> ByRollbacks;
  for (const JobEvent &E : Log.Events)
    if (E.Rollbacks > 0 || E.Status != "ok")
      ByRollbacks.push_back(&E);
  std::stable_sort(ByRollbacks.begin(), ByRollbacks.end(),
                   [](const JobEvent *A, const JobEvent *B) {
                     return A->Rollbacks > B->Rollbacks;
                   });
  if (ByRollbacks.size() > Opts.TopK)
    ByRollbacks.resize(Opts.TopK);
  html::appendTag(Out, "h2", "Rolled-back / failed programs");
  if (ByRollbacks.empty())
    html::appendTag(Out, "p", "none — every job completed clean", "sub");
  else
    JobTable(ByRollbacks);

  // The deterministic aggregate, as the table view of the histograms.
  html::appendTag(Out, "h2", "Counter aggregates (machine-independent)");
  Out += "<div class=\"card\"><table><tr><th>counter</th>"
         "<th class=\"num\">jobs</th><th class=\"num\">sum</th>"
         "<th class=\"num\">mean</th><th class=\"num\">min</th>"
         "<th class=\"num\">p50</th><th class=\"num\">p95</th>"
         "<th class=\"num\">p99</th><th class=\"num\">max</th></tr>";
  for (const auto &[Name, M] : Agg.counters()) {
    Out += "<tr><td>";
    html::appendEscaped(Out, Name);
    Out += "</td><td class=\"num\">" + std::to_string(M.Jobs) + "</td>";
    Out += "<td class=\"num\">" + std::to_string(M.Sum) + "</td>";
    Out += "<td class=\"num\">" + html::escaped(fmtNum(M.mean())) + "</td>";
    Out += "<td class=\"num\">" + std::to_string(M.Jobs ? M.Min : 0) + "</td>";
    Out += "<td class=\"num\">" + std::to_string(M.Hist.percentile(0.5)) +
           "</td>";
    Out += "<td class=\"num\">" + std::to_string(M.Hist.percentile(0.95)) +
           "</td>";
    Out += "<td class=\"num\">" + std::to_string(M.Hist.percentile(0.99)) +
           "</td>";
    Out += "<td class=\"num\">" + std::to_string(M.Max) + "</td></tr>";
  }
  Out += "</table></div>";

  if (!Log.Warnings.empty()) {
    html::appendTag(Out, "h2", "Reader warnings");
    Out += "<div class=\"card\">";
    for (const std::string &W : Log.Warnings)
      html::appendTag(Out, "div", W, "muted");
    Out += "</div>";
  }

  Out += "</body></html>";
  return Out;
}

std::string report::renderFleetDiff(const EventLogFile &A,
                                    const EventLogFile &B,
                                    const std::string &NameA,
                                    const std::string &NameB) {
  Aggregate AggA, AggB;
  for (const JobEvent &E : A.Events)
    AggA.addJob(E);
  for (const JobEvent &E : B.Events)
    AggB.addJob(E);
  std::vector<DiffRow> Rows = fleet::diffAggregates(AggA, AggB);

  std::string Out;
  beginDocument(Out, "fleet diff");
  html::appendTag(Out, "h1", "Corpus diff: " + NameA + " vs " + NameB);
  html::appendTag(Out, "p",
                  "A = " + NameA + " (" + std::to_string(A.Events.size()) +
                      " jobs, passes: " + A.Passes + ") · B = " + NameB +
                      " (" + std::to_string(B.Events.size()) +
                      " jobs, passes: " + B.Passes + ")",
                  "sub");

  Out += "<div class=\"tiles\">";
  appendTile(Out, "jobs A", std::to_string(A.Events.size()), NameA);
  appendTile(Out, "jobs B", std::to_string(B.Events.size()), NameB);
  auto StatusOf = [](const Aggregate &G, const char *S) {
    auto It = G.statuses().find(S);
    return It == G.statuses().end() ? uint64_t(0) : It->second;
  };
  appendTile(Out, "ok A → B",
             std::to_string(StatusOf(AggA, "ok")) + " → " +
                 std::to_string(StatusOf(AggB, "ok")),
             "");
  uint64_t BadA = A.Events.size() - StatusOf(AggA, "ok");
  uint64_t BadB = B.Events.size() - StatusOf(AggB, "ok");
  appendTile(Out, "not-ok A → B",
             std::to_string(BadA) + " → " + std::to_string(BadB), "");
  Out += "</div>";

  // Per-counter comparison, ranked by |relative delta|.  Up-arrows are
  // regressions (more work), down-arrows improvements; the sign and
  // arrow carry the direction, color only reinforces it.
  html::appendTag(Out, "h2", "Per-counter deltas (ranked by magnitude)");
  Out += "<div class=\"card\"><table><tr><th>counter</th>"
         "<th class=\"num\">mean A</th><th class=\"num\">mean B</th>"
         "<th class=\"num\">Δ mean</th><th class=\"num\">Δ %</th>"
         "<th class=\"num\">sum A</th><th class=\"num\">sum B</th></tr>";
  for (const DiffRow &R : Rows) {
    bool Up = R.Delta > 0, Flat = R.Delta == 0;
    Out += "<tr><td>";
    html::appendEscaped(Out, R.Counter);
    Out += "</td><td class=\"num\">" + html::escaped(fmtNum(R.MeanA)) +
           "</td>";
    Out += "<td class=\"num\">" + html::escaped(fmtNum(R.MeanB)) + "</td>";
    Out += "<td class=\"num ";
    Out += Flat ? "muted" : (Up ? "delta-up" : "delta-down");
    Out += "\">";
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%s%s%s",
                  Flat ? "" : (Up ? "▲ +" : "▼ "),
                  fmtNum(R.Delta).c_str(), "");
    Out += html::escaped(Buf);
    Out += "</td><td class=\"num ";
    Out += Flat ? "muted" : (Up ? "delta-up" : "delta-down");
    Out += "\">";
    if (std::fabs(R.RelDelta) >= 1e9)
      Out += Up ? "new" : "gone";
    else {
      std::snprintf(Buf, sizeof(Buf), "%+.1f%%", R.RelDelta * 100.0);
      Out += Buf;
    }
    Out += "</td><td class=\"num\">" + std::to_string(R.SumA) + "</td>";
    Out += "<td class=\"num\">" + std::to_string(R.SumB) + "</td></tr>";
  }
  Out += "</table></div>";

  // Jobs present in both runs: status flips and the movers of the
  // top-ranked changed counter.
  std::map<std::string, const JobEvent *> JobsA;
  for (const JobEvent &E : A.Events)
    JobsA.emplace(E.Name, &E);
  std::vector<std::pair<const JobEvent *, const JobEvent *>> Matched;
  for (const JobEvent &E : B.Events) {
    auto It = JobsA.find(E.Name);
    if (It != JobsA.end())
      Matched.emplace_back(It->second, &E);
  }

  html::appendTag(Out, "h2", "Status changes");
  std::string Flips;
  for (const auto &[EA, EB] : Matched)
    if (EA->Status != EB->Status) {
      Flips += "<tr><td>";
      html::appendEscaped(Flips, jobLabel(*EA));
      Flips += "</td><td>";
      html::appendEscaped(Flips, EA->Status);
      Flips += " → ";
      html::appendEscaped(Flips, EB->Status);
      Flips += "</td></tr>";
    }
  if (Flips.empty())
    html::appendTag(Out, "p", "none — every matched job kept its status",
                    "sub");
  else
    Out += "<div class=\"card\"><table><tr><th>program</th><th>status"
           "</th></tr>" +
           Flips + "</table></div>";

  const DiffRow *Top = nullptr;
  for (const DiffRow &R : Rows)
    if (R.Delta != 0.0) {
      Top = &R;
      break;
    }
  if (Top && !Matched.empty()) {
    html::appendTag(Out, "h2",
                    "Biggest per-job movers: " + Top->Counter);
    struct Mover {
      const JobEvent *EA;
      const JobEvent *EB;
      int64_t Delta;
    };
    std::vector<Mover> Movers;
    for (const auto &[EA, EB] : Matched) {
      int64_t D = static_cast<int64_t>(counterOf(*EB, Top->Counter)) -
                  static_cast<int64_t>(counterOf(*EA, Top->Counter));
      if (D != 0)
        Movers.push_back({EA, EB, D});
    }
    std::stable_sort(Movers.begin(), Movers.end(),
                     [](const Mover &X, const Mover &Y) {
                       return std::llabs(X.Delta) > std::llabs(Y.Delta);
                     });
    if (Movers.size() > 10)
      Movers.resize(10);
    if (Movers.empty()) {
      html::appendTag(Out, "p",
                      "no matched job moved on this counter (the delta "
                      "comes from unmatched jobs)",
                      "sub");
    } else {
      Out += "<div class=\"card\"><table><tr><th>program</th>"
             "<th class=\"num\">A</th><th class=\"num\">B</th>"
             "<th class=\"num\">Δ</th></tr>";
      for (const Mover &M : Movers) {
        Out += "<tr><td>";
        html::appendEscaped(Out, jobLabel(*M.EA));
        Out += "</td><td class=\"num\">" +
               std::to_string(counterOf(*M.EA, Top->Counter)) + "</td>";
        Out += "<td class=\"num\">" +
               std::to_string(counterOf(*M.EB, Top->Counter)) + "</td>";
        Out += "<td class=\"num ";
        Out += M.Delta > 0 ? "delta-up" : "delta-down";
        Out += "\">";
        char Buf[32];
        std::snprintf(Buf, sizeof(Buf), "%+lld", (long long)M.Delta);
        Out += Buf;
        Out += "</td></tr>";
      }
      Out += "</table></div>";
    }
  }

  Out += "</body></html>";
  return Out;
}
