//===- report/HtmlReport.cpp - Self-contained HTML report ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "report/HtmlReport.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

using namespace am;
using namespace am::report;

namespace {

//===----------------------------------------------------------------------===//
// Styling
//===----------------------------------------------------------------------===//

const char *Css = R"css(
body { font: 14px/1.5 system-ui, sans-serif; margin: 0 auto; max-width: 72rem;
       padding: 1rem 2rem; color: #1a1a2e; background: #fafafa; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #4a4e8c; padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; color: #37386e; }
h3 { font-size: 1rem; margin-bottom: .3rem; }
code, pre, td.ir, table.facts { font: 12px/1.45 ui-monospace, monospace; }
pre { background: #fff; border: 1px solid #ddd; border-radius: 4px; padding: .6rem .8rem;
      overflow-x: auto; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #ccc; padding: .15rem .5rem; text-align: left;
         vertical-align: top; }
th { background: #ececf5; }
.num { text-align: right; font-variant-numeric: tabular-nums; }
.phase { font-weight: 600; }
.diffcols { display: flex; gap: 1rem; flex-wrap: wrap; }
.diffcols > div { flex: 1 1 24rem; min-width: 0; }
.blk { background: #fff; border: 1px solid #ddd; border-radius: 4px;
       margin: .4rem 0; padding: .3rem .6rem; }
.blk .bname { color: #666; font-size: 11px; }
.iline { white-space: pre; font: 12px/1.5 ui-monospace, monospace; }
.iline.del { background: #fde8e8; text-decoration: line-through; color: #8a2f2f; }
.iline.ins { background: #e3f6e3; color: #1d5c1d; }
.iline.mov { background: #fff6d9; }
.iline.rew { background: #e7eefc; }
.iid { color: #999; font-size: 10px; }
.remark { display: block; margin-left: 1.5rem; font-size: 11px; color: #555;
          background: #f4f4fc; border-left: 3px solid #4a4e8c; padding: .1rem .4rem; }
.remark .rk { font-weight: 600; color: #37386e; }
.legend span { display: inline-block; padding: 0 .4rem; margin-right: .6rem;
               border-radius: 3px; font-size: 11px; }
.unavailable { color: #a33; font-style: italic; }
.spark { vertical-align: middle; }
details { margin: .4rem 0; }
summary { cursor: pointer; color: #37386e; }
.facts td { font-size: 11px; letter-spacing: .15em; }
.facts td.lbl { letter-spacing: normal; }
.muted { color: #777; }
)css";

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// Appends \p S with the five HTML metacharacters escaped; safe for
/// element text and double-quoted attribute values.  Bytes outside ASCII
/// pass through (the report declares UTF-8).
void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '&':
      Out += "&amp;";
      break;
    case '<':
      Out += "&lt;";
      break;
    case '>':
      Out += "&gt;";
      break;
    case '"':
      Out += "&quot;";
      break;
    case '\'':
      Out += "&#39;";
      break;
    default:
      Out.push_back(C);
    }
  }
}

void appendNum(std::string &Out, uint64_t V) { Out += std::to_string(V); }

/// An inline SVG sparkline over \p Values (polyline, auto-scaled).
void appendSparkline(std::string &Out, const std::vector<uint64_t> &Values,
                     const char *Stroke = "#4a4e8c") {
  if (Values.empty()) {
    Out += "<span class=\"muted\">&mdash;</span>";
    return;
  }
  const int W = 160, H = 28, Pad = 2;
  uint64_t Max = *std::max_element(Values.begin(), Values.end());
  if (Max == 0)
    Max = 1;
  Out += "<svg class=\"spark\" width=\"" + std::to_string(W) + "\" height=\"" +
         std::to_string(H) + "\" viewBox=\"0 0 " + std::to_string(W) + " " +
         std::to_string(H) + "\"><polyline fill=\"none\" stroke=\"";
  Out += Stroke;
  Out += "\" stroke-width=\"1.5\" points=\"";
  size_t N = Values.size();
  for (size_t Idx = 0; Idx < N; ++Idx) {
    double X = N == 1 ? W / 2.0
                      : Pad + (W - 2.0 * Pad) * Idx / double(N - 1);
    double Y = (H - Pad) - (H - 2.0 * Pad) * double(Values[Idx]) / double(Max);
    Out += std::to_string(int(X + 0.5)) + "," + std::to_string(int(Y + 0.5));
    if (Idx + 1 != N)
      Out += ' ';
  }
  Out += "\"/></svg> <span class=\"muted\">max ";
  appendNum(Out, Max);
  Out += "</span>";
}

std::string phaseName(const Snapshot &S) {
  std::string Name = S.Label;
  if (S.Round) {
    Name += " round ";
    Name += std::to_string(S.Round);
  }
  return Name;
}

/// Raw-to-normalized solve serials (RecorderSession::serialMap); the HTML
/// shows only normalized serials, like the facts JSON.
using SerialTable = std::unordered_map<uint64_t, uint64_t>;

uint64_t mapSerial(const SerialTable &Serials, uint64_t Raw) {
  auto It = Serials.find(Raw);
  return It == Serials.end() ? 0 : It->second;
}

/// One rendered remark line (anchored under its instruction).
void appendRemark(std::string &Out, const remarks::Remark &R,
                  const SerialTable &Serials) {
  Out += "<span class=\"remark\"><span class=\"rk\">";
  appendEscaped(Out, remarks::kindName(R.K));
  if (R.Act == remarks::Action::Remove)
    Out += " (remove)";
  else if (R.Act == remarks::Action::Insert)
    Out += " (insert)";
  Out += "</span>";
  if (!R.Pattern.empty()) {
    Out += " <code>";
    appendEscaped(Out, R.Pattern);
    Out += "</code>";
  }
  if (R.Place != remarks::Placement::None) {
    Out += " @";
    appendEscaped(Out, remarks::placementName(R.Place));
  }
  for (const auto &[Name, Value] : R.Facts) {
    Out += " &middot; ";
    appendEscaped(Out, Name);
    Out += "=";
    appendEscaped(Out, Value);
  }
  if (R.Solve) {
    Out += " &middot; solve #";
    appendNum(Out, mapSerial(Serials, R.Solve));
  }
  Out += "</span>";
}

//===----------------------------------------------------------------------===//
// Sections
//===----------------------------------------------------------------------===//

void appendTimeline(std::string &Out, const RecorderSession &S,
                    bool StatsAvailable) {
  const auto &Names = RecorderSession::counterNames();
  Out += "<h2>Timeline</h2>\n";
  Out += "<p>One row per recorded pipeline point; counters are cumulative "
         "deltas since recording started.</p>\n<table><tr><th>#</th>"
         "<th>phase</th><th class=\"num\">blocks</th>"
         "<th class=\"num\">instrs</th>";
  if (StatsAvailable)
    for (const std::string &Name : Names) {
      Out += "<th class=\"num\">";
      appendEscaped(Out, Name);
      Out += "</th>";
    }
  Out += "</tr>\n";
  for (size_t Idx = 0; Idx < S.snapshots().size(); ++Idx) {
    const Snapshot &Snap = S.snapshots()[Idx];
    Out += "<tr><td class=\"num\">" + std::to_string(Idx) +
           "</td><td class=\"phase\">";
    appendEscaped(Out, phaseName(Snap));
    Out += "</td><td class=\"num\">" + std::to_string(Snap.Blocks.size()) +
           "</td><td class=\"num\">" + std::to_string(Snap.numInstrs()) +
           "</td>";
    if (StatsAvailable) {
      if (Snap.HasCounters)
        for (uint64_t C : Snap.Counters) {
          Out += "<td class=\"num\">";
          appendNum(Out, C);
          Out += "</td>";
        }
      else
        for (size_t C = 0; C < Names.size(); ++C)
          Out += "<td class=\"num muted\">&mdash;</td>";
    }
    Out += "</tr>\n";
  }
  Out += "</table>\n";
  if (!StatsAvailable)
    Out += "<p class=\"unavailable\">Counter columns unavailable: the stats "
           "registry was disabled for this run.</p>\n";
}

void appendConvergence(std::string &Out, const RecorderSession &S,
                       bool StatsAvailable) {
  Out += "<h2>Convergence</h2>\n";
  if (!StatsAvailable) {
    Out += "<p class=\"unavailable\">Convergence panels unavailable: the "
           "stats registry was disabled for this run.</p>\n";
    return;
  }
  std::vector<uint64_t> Processed, Dirty;
  for (const SolveRecord &R : S.solves()) {
    Processed.push_back(R.BlocksProcessed);
    Dirty.push_back(R.DirtyClosure);
  }
  Out += "<table><tr><th>series</th><th>sparkline</th></tr>\n";
  Out += "<tr><td>blocks processed per solve (" +
         std::to_string(Processed.size()) + " solves)</td><td>";
  appendSparkline(Out, Processed);
  Out += "</td></tr>\n<tr><td>dirty-closure size per solve</td><td>";
  appendSparkline(Out, Dirty, "#8c4a4a");
  Out += "</td></tr>\n";

  // Eliminations per snapshot interval, from the am.eliminated counter
  // deltas between consecutive snapshots.
  const auto &Names = RecorderSession::counterNames();
  size_t ElimIdx = 0;
  for (; ElimIdx < Names.size(); ++ElimIdx)
    if (Names[ElimIdx] == "am.eliminated")
      break;
  std::vector<uint64_t> Elims;
  const auto &Snaps = S.snapshots();
  for (size_t Idx = 1; Idx < Snaps.size(); ++Idx)
    if (Snaps[Idx].HasCounters && Snaps[Idx - 1].HasCounters &&
        ElimIdx < Snaps[Idx].Counters.size())
      Elims.push_back(Snaps[Idx].Counters[ElimIdx] -
                      Snaps[Idx - 1].Counters[ElimIdx]);
  Out += "<tr><td>eliminations per phase step</td><td>";
  appendSparkline(Out, Elims, "#4a8c5c");
  Out += "</td></tr>\n</table>\n";
}

/// Remarks of one phase step, grouped by the instruction id they anchor
/// on.  A remark belongs to the step whose destination snapshot has
/// Label == remark Pass and Round == remark Round.
using RemarksByInstr = std::unordered_map<uint32_t, std::vector<size_t>>;

RemarksByInstr remarksForStep(const std::vector<remarks::Remark> &Remarks,
                              const Snapshot &To) {
  RemarksByInstr M;
  for (size_t Idx = 0; Idx < Remarks.size(); ++Idx) {
    const remarks::Remark &R = Remarks[Idx];
    if (R.Pass == To.Label && R.Round == To.Round)
      M[R.InstrId].push_back(Idx);
  }
  return M;
}

/// Renders one snapshot's program with per-instruction CSS classes from
/// \p Classes (id -> class) and remark anchors from \p Anchors.
void appendProgram(std::string &Out, const RecorderSession &S,
                   const Snapshot &Snap,
                   const std::unordered_map<uint32_t, const char *> &Classes,
                   const RemarksByInstr *Anchors,
                   const std::vector<remarks::Remark> &Remarks,
                   const SerialTable &Serials) {
  for (size_t B = 0; B < Snap.Blocks.size(); ++B) {
    const BlockSnap &Blk = Snap.Blocks[B];
    Out += "<div class=\"blk\"><span class=\"bname\">b" + std::to_string(B);
    if (Blk.Synthetic)
      Out += " (synthetic)";
    if (!Blk.Succs.empty()) {
      Out += " &rarr;";
      for (uint32_t Succ : Blk.Succs)
        Out += " b" + std::to_string(Succ);
    }
    Out += "</span>\n";
    for (const InstrSnap &I : Blk.Instrs) {
      const char *Cls = "";
      auto It = Classes.find(I.Id);
      if (I.Id && It != Classes.end())
        Cls = It->second;
      Out += "<span class=\"iline ";
      Out += Cls;
      Out += "\">";
      appendEscaped(Out, S.text(I.Text));
      if (I.Id) {
        Out += "  <span class=\"iid\">#" + std::to_string(I.Id) + "</span>";
      }
      Out += "</span>\n";
      if (Anchors && I.Id) {
        auto AIt = Anchors->find(I.Id);
        if (AIt != Anchors->end())
          for (size_t RIdx : AIt->second)
            appendRemark(Out, Remarks[RIdx], Serials);
      }
    }
    Out += "</div>\n";
  }
}

void appendDiffs(std::string &Out, const RecorderSession &S,
                 const std::vector<remarks::Remark> &Remarks,
                 const SerialTable &Serials) {
  const auto &Snaps = S.snapshots();
  Out += "<h2>Phase steps</h2>\n";
  Out += "<p class=\"legend\"><span class=\"iline ins\">inserted</span>"
         "<span class=\"iline del\">deleted</span>"
         "<span class=\"iline mov\">moved</span>"
         "<span class=\"iline rew\">rewritten</span></p>\n";
  for (size_t Idx = 1; Idx < Snaps.size(); ++Idx) {
    const Snapshot &From = Snaps[Idx - 1];
    const Snapshot &To = Snaps[Idx];
    SnapshotDiff D = S.diff(Idx - 1, Idx);
    RemarksByInstr Anchors = remarksForStep(Remarks, To);

    Out += "<details";
    if (!D.empty())
      Out += " open";
    Out += "><summary><b>";
    appendEscaped(Out, phaseName(From));
    Out += " &rarr; ";
    appendEscaped(Out, phaseName(To));
    Out += "</b> &middot; " + std::to_string(D.Inserted.size()) +
           " inserted, " + std::to_string(D.Deleted.size()) + " deleted, " +
           std::to_string(D.Moved.size()) + " moved, " +
           std::to_string(D.Rewritten.size()) + " rewritten";
    if (D.empty())
      Out += " (no change)";
    Out += "</summary>\n<div class=\"diffcols\"><div><h3>before</h3>\n";

    std::unordered_map<uint32_t, const char *> FromClasses, ToClasses;
    for (const auto &P : D.Deleted)
      FromClasses[P.Id] = "del";
    for (const auto &P : D.Inserted)
      ToClasses[P.Id] = "ins";
    for (const auto &M : D.Moved)
      ToClasses[M.Id] = "mov";
    for (const auto &R : D.Rewritten)
      ToClasses[R.Id] = "rew"; // rewrite wins over move in the display

    // Remarks about instructions that do not survive the step (e.g. an
    // rae elimination) anchor on the "before" side.
    RemarksByInstr FromAnchors, ToAnchors;
    std::unordered_map<uint32_t, bool> InTo;
    for (const BlockSnap &B : To.Blocks)
      for (const InstrSnap &I : B.Instrs)
        if (I.Id)
          InTo[I.Id] = true;
    for (auto &[Id, Events] : Anchors) {
      if (InTo.count(Id))
        ToAnchors[Id] = Events;
      else
        FromAnchors[Id] = Events;
    }

    appendProgram(Out, S, From, FromClasses, &FromAnchors, Remarks, Serials);
    Out += "</div><div><h3>after</h3>\n";
    appendProgram(Out, S, To, ToClasses, &ToAnchors, Remarks, Serials);
    Out += "</div></div></details>\n";
  }
}

void appendFactTables(std::string &Out, const RecorderSession &S,
                      const SerialTable &Serials) {
  Out += "<h2>Dataflow facts (Tables 1&ndash;3)</h2>\n";
  if (S.facts().empty()) {
    Out += "<p class=\"muted\">No analysis facts were captured.</p>\n";
    return;
  }
  Out += "<p>Bit strings render bit 0 first, over the universe listed with "
         "each table.</p>\n";
  for (const FactTable &T : S.facts()) {
    Out += "<details><summary><b>";
    appendEscaped(Out, T.Analysis);
    Out += "</b> (pass ";
    appendEscaped(Out, T.Pass);
    if (T.Round)
      Out += ", round " + std::to_string(T.Round);
    if (T.Solve)
      Out += ", solve #" + std::to_string(mapSerial(Serials, T.Solve));
    Out += ")</summary>\n<p>universe:";
    for (size_t Idx = 0; Idx < T.Universe.size(); ++Idx) {
      Out += Idx ? ", " : " ";
      Out += "<code>" + std::to_string(Idx) + ": ";
      appendEscaped(Out, S.text(T.Universe[Idx]));
      Out += "</code>";
    }
    Out += "</p>\n<table class=\"facts\"><tr><th>block</th><th>entry</th>"
           "<th>exit</th>";
    for (const FactTable::Extra &E : T.Extras) {
      Out += "<th>";
      appendEscaped(Out, E.Name);
      Out += "</th>";
    }
    Out += "</tr>\n";
    for (const FactTable::Row &R : T.Rows) {
      Out += "<tr><td class=\"lbl\">b" + std::to_string(R.Block) + "</td><td>";
      appendEscaped(Out, R.Entry);
      Out += "</td><td>";
      appendEscaped(Out, R.Exit);
      Out += "</td>";
      for (const FactTable::Extra &E : T.Extras) {
        Out += "<td>";
        appendEscaped(Out, E.PerBlock[R.Block]);
        Out += "</td>";
      }
      Out += "</tr>\n";
    }
    Out += "</table></details>\n";
  }
}

void appendSolves(std::string &Out, const RecorderSession &S) {
  Out += "<h2>Dataflow solves</h2>\n";
  if (S.solves().empty()) {
    Out += "<p class=\"muted\">No solves were observed.</p>\n";
    return;
  }
  Out += "<table><tr><th>phase</th><th>direction</th><th>path</th>"
         "<th class=\"num\">bits</th><th class=\"num\">blocks</th>"
         "<th class=\"num\">processed</th><th class=\"num\">dirty</th>"
         "</tr>\n";
  for (const SolveRecord &R : S.solves()) {
    Out += "<tr><td>";
    appendEscaped(Out, R.Label);
    if (R.Round)
      Out += " round " + std::to_string(R.Round);
    Out += "</td><td>";
    Out += R.Forward ? "forward" : "backward";
    Out += "</td><td>";
    Out += R.Path == 2 ? "cached" : R.Path == 1 ? "incremental" : "full";
    Out += "</td><td class=\"num\">" + std::to_string(R.Bits) +
           "</td><td class=\"num\">" + std::to_string(R.Blocks) +
           "</td><td class=\"num\">";
    appendNum(Out, R.BlocksProcessed);
    Out += "</td><td class=\"num\">" + std::to_string(R.DirtyClosure) +
           "</td></tr>\n";
  }
  Out += "</table>\n";
}

} // namespace

std::string am::report::renderHtmlReport(const RecorderSession &S,
                                         const ReportMeta &Meta) {
  std::string Out;
  Out.reserve(1 << 16);
  Out += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n<title>";
  appendEscaped(Out, Meta.Title.empty() ? "optimization report" : Meta.Title);
  Out += "</title>\n<style>";
  Out += Css;
  Out += "</style>\n</head>\n<body>\n<h1>Optimization report";
  if (!Meta.Title.empty()) {
    Out += ": ";
    appendEscaped(Out, Meta.Title);
  }
  Out += "</h1>\n<p>pipeline: <code>";
  appendEscaped(Out, Meta.PassSpec);
  Out += "</code> &middot; " + std::to_string(S.snapshots().size()) +
         " snapshots &middot; " + std::to_string(S.facts().size()) +
         " fact tables &middot; " + std::to_string(Meta.Remarks.size()) +
         " remarks</p>\n";

  const SerialTable Serials = S.serialMap(&Meta.Remarks);
  appendTimeline(Out, S, Meta.StatsAvailable);
  appendConvergence(Out, S, Meta.StatsAvailable);
  appendDiffs(Out, S, Meta.Remarks, Serials);
  appendFactTables(Out, S, Serials);
  appendSolves(Out, S);

  Out += "<h2>Input program</h2>\n<pre>";
  appendEscaped(Out, Meta.InputText);
  Out += "</pre>\n<h2>Optimized program</h2>\n<pre>";
  appendEscaped(Out, Meta.OutputText);
  Out += "</pre>\n</body>\n</html>\n";
  return Out;
}
