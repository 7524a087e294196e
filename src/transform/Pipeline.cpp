//===- transform/Pipeline.cpp - Named pass pipelines ------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"
#include "interp/Equivalence.h"
#include "report/Recorder.h"
#include "support/Json.h"
#include "support/Remarks.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "transform/AssignmentHoisting.h"
#include "transform/AssignmentMotion.h"
#include "transform/CopyPropagation.h"
#include "transform/FinalFlush.h"
#include "transform/Initialization.h"
#include "transform/LazyCodeMotion.h"
#include "transform/LocalValueNumbering.h"
#include "transform/Normalize.h"
#include "transform/PartialDeadCodeElim.h"
#include "transform/RedundantAssignElim.h"
#include "transform/RestrictedAssignmentMotion.h"
#include "transform/UniformEmAm.h"
#include "verify/FaultInjector.h"
#include "verify/GraphVerifier.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>

using namespace am;

namespace {

std::vector<std::string> splitSpec(const std::string &Spec) {
  std::vector<std::string> Names;
  std::string Cur;
  for (char C : Spec) {
    if (C == ',') {
      if (!Cur.empty())
        Names.push_back(Cur);
      Cur.clear();
      continue;
    }
    if (C != ' ' && C != '\t')
      Cur.push_back(C);
  }
  if (!Cur.empty())
    Names.push_back(Cur);
  return Names;
}

uint64_t countAssignments(const FlowGraph &G) {
  uint64_t N = 0;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs)
      N += I.isAssign();
  return N;
}

/// Captures registry counters and IR shape around one pass body, then
/// fills in the delta fields of a PassRecord and the pass span's trace
/// args.
class PassScope {
public:
  PassScope(const std::string &PassName, const FlowGraph &G)
      : Name(PassName), Span(Name) {
    Rec.Name = Name;
    Rec.BlocksBefore = G.numBlocks();
    Rec.InstrsBefore = G.numInstrs();
    Rec.AssignsBefore = countAssignments(G);
    auto &Reg = stats::Registry::get();
    DfaSolves0 = Reg.counterValue("dfa.solves");
    DfaBlocks0 = Reg.counterValue("dfa.blocks_processed");
    AmRounds0 = Reg.counterValue("am.rounds");
    AmElim0 = Reg.counterValue("am.eliminated");
    AmHoist0 = Reg.counterValue("am.hoist_rounds");
    FlushDel0 = Reg.counterValue("flush.inits_deleted");
    FlushSunk0 = Reg.counterValue("flush.inits_sunk");
    Start = std::chrono::steady_clock::now();
  }

  /// Finalizes the record against the post-pass graph and hands it over;
  /// the scope is done with it.
  PassRecord finish(const FlowGraph &G, std::string Detail) {
    Rec.WallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
    Rec.Detail = std::move(Detail);
    Rec.BlocksAfter = G.numBlocks();
    Rec.InstrsAfter = G.numInstrs();
    Rec.AssignsAfter = countAssignments(G);
    auto &Reg = stats::Registry::get();
    Rec.DfaSolves = Reg.counterValue("dfa.solves") - DfaSolves0;
    Rec.DfaBlocksProcessed =
        Reg.counterValue("dfa.blocks_processed") - DfaBlocks0;
    Rec.AmRounds = Reg.counterValue("am.rounds") - AmRounds0;
    Rec.AmEliminated = Reg.counterValue("am.eliminated") - AmElim0;
    Rec.AmHoistRounds = Reg.counterValue("am.hoist_rounds") - AmHoist0;
    Rec.FlushInitsDeleted =
        Reg.counterValue("flush.inits_deleted") - FlushDel0;
    Rec.FlushInitsSunk = Reg.counterValue("flush.inits_sunk") - FlushSunk0;
    Span.arg("instrs_before", Rec.InstrsBefore);
    Span.arg("instrs_after", Rec.InstrsAfter);
    Span.arg("assigns_before", Rec.AssignsBefore);
    Span.arg("assigns_after", Rec.AssignsAfter);
    Span.arg("blocks_before", Rec.BlocksBefore);
    Span.arg("blocks_after", Rec.BlocksAfter);
    Span.arg("dfa_solves", Rec.DfaSolves);
    Span.arg("detail", Rec.Detail);
    return std::move(Rec);
  }

private:
  /// Outlives the span, which refers to it (finish() moves Rec out).
  std::string Name;
  /// The span named after the pass; the transform's own spans ("rae",
  /// "analysis.redundancy", ...) nest beneath it, so the phase tree and
  /// the trace mirror the pipeline structure.
  telemetry::Span Span;
  PassRecord Rec;
  std::chrono::steady_clock::time_point Start;
  uint64_t DfaSolves0 = 0, DfaBlocks0 = 0;
  uint64_t AmRounds0 = 0, AmElim0 = 0, AmHoist0 = 0;
  uint64_t FlushDel0 = 0, FlushSunk0 = 0;
};

/// Several passes require split critical edges; split on demand so pass
/// specs compose without boilerplate.
void ensureSplit(FlowGraph &G, PipelineResult &R) {
  if (!G.hasCriticalEdges())
    return;
  PassScope Scope("(split)", G);
  unsigned N = G.splitCriticalEdges();
  std::string Detail = std::to_string(N) + " critical edges";
  R.Log.push_back("(split " + std::to_string(N) + " critical edges)");
  R.Records.push_back(Scope.finish(G, std::move(Detail)));
}

/// Runs one named pass over R.Graph, appending its record and log line.
/// \p Limits carries the per-pass AM round cap (0 = unlimited).
void runOnePass(const std::string &Name, PipelineResult &R,
                const PipelineLimits &Limits) {
  if (Name == "init" || Name == "aht" || Name == "flush" || Name == "pde")
    ensureSplit(R.Graph, R);
  PassScope Scope(Name, R.Graph);
  std::ostringstream Line;
  if (Name == "uniform" || Name == "am") {
    // "am" is the motion phase alone: no initialization, no flush.
    UniformOptions UO;
    UO.RunInitialization = UO.RunFinalFlush = Name == "uniform";
    UO.MaxAmIterations = Limits.MaxAmRounds;
    UniformStats Stats;
    R.Graph = runUniformEmAm(R.Graph, UO, &Stats);
    Line << Stats.AmPhase.Iterations << " AM iterations, "
         << Stats.AmPhase.Eliminated << " eliminated";
  } else if (Name == "init") {
    Line << runInitializationPhase(R.Graph) << " decompositions";
  } else if (Name == "rae") {
    Line << runRedundantAssignmentElimination(R.Graph) << " eliminated";
  } else if (Name == "aht") {
    Line << (runAssignmentHoisting(R.Graph) ? "changed" : "no change");
  } else if (Name == "flush") {
    Line << (runFinalFlush(R.Graph) ? "changed" : "no change");
  } else if (Name == "lcm") {
    lazyCodeMotion(R.Graph);
    Line << "done";
  } else if (Name == "bcm") {
    R.Graph = runBusyCodeMotion(R.Graph);
    Line << "done";
  } else if (Name == "restricted") {
    RestrictedAmStats Stats;
    R.Graph = runRestrictedAssignmentMotion(R.Graph, &Stats);
    Line << Stats.ProfitableHoistings << " profitable hoistings, "
         << Stats.Eliminated << " eliminated";
  } else if (Name == "cp") {
    Line << runCopyPropagation(R.Graph) << " uses rewritten";
  } else if (Name == "lvn") {
    Line << runLocalValueNumbering(R.Graph) << " reuses";
  } else if (Name == "pde") {
    PdeStats Stats = runPartialDeadCodeElim(R.Graph);
    Line << Stats.Rounds << " rounds, net " << Stats.Removed << " removed";
  } else if (Name == "split") {
    Line << R.Graph.splitCriticalEdges() << " edges split";
  } else { // simplify
    simplify(R.Graph);
    Line << "done";
  }
  R.Records.push_back(Scope.finish(R.Graph, Line.str()));
  R.Log.push_back(Name + ": " + Line.str());
}

/// The edge-corrupt fault class fires here, between the pass body and the
/// guard checks: rewire one successor edge without touching the matching
/// predecessor list — exactly the asymmetry GraphVerifier must catch.
void maybeCorruptEdge(FlowGraph &G) {
  fault::FaultInjector *FI = fault::FaultInjector::current();
  if (!FI || !FI->armedFor(fault::FaultClass::CorruptEdge))
    return;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    auto &Succs = G.block(B).Succs;
    if (Succs.empty())
      continue;
    if (!FI->fire(fault::FaultClass::CorruptEdge))
      continue;
    // Redirect to any other block; the end node is a safe target (a
    // non-end block pointing at it stays in range but breaks symmetry).
    BlockId To = Succs[0] == G.end() ? G.start() : G.end();
    Succs[0] = To;
    G.touchBlock(B);
    return;
  }
}

} // namespace

const char *am::passStatusName(PassStatus S) {
  switch (S) {
  case PassStatus::Ok:
    return "ok";
  case PassStatus::RolledBack:
    return "rolled-back";
  case PassStatus::LimitExhausted:
    return "limit-exhausted";
  }
  return "?";
}

bool am::isKnownPass(const std::string &Name) {
  static const char *Known[] = {"uniform", "am",    "init", "rae",
                                "aht",     "flush", "lcm",  "bcm",
                                "cp",      "lvn",   "pde",  "restricted",
                                "split",   "simplify"};
  for (const char *K : Known)
    if (Name == K)
      return true;
  return false;
}

diag::Expected<std::vector<std::string>>
am::parsePassSpec(const std::string &Spec) {
  std::vector<std::string> Names = splitSpec(Spec);
  for (const std::string &Name : Names)
    if (!isKnownPass(Name))
      return diag::Diagnostic::error("pipeline",
                                     "unknown pass '" + Name + "'");
  if (Names.empty())
    return diag::Diagnostic::error("pipeline", "empty pipeline");
  return Names;
}

diag::Expected<PipelineLimits> am::parseLimitsSpec(const std::string &Spec) {
  PipelineLimits L;
  for (const std::string &Item : splitSpec(Spec)) {
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq + 1 == Item.size())
      return diag::Diagnostic::error(
          "limits", "expected key=value, got '" + Item + "'");
    std::string Key = Item.substr(0, Eq);
    std::string Val = Item.substr(Eq + 1);
    char *End = nullptr;
    double Num = std::strtod(Val.c_str(), &End);
    if (End == Val.c_str() || *End != '\0' || !std::isfinite(Num) || Num < 0)
      return diag::Diagnostic::error(
          "limits", "value '" + Val + "' for '" + Key +
                        "' is not a finite non-negative number");
    // The integer budgets must fit their fields: casting a larger double
    // is undefined behaviour (2^64 is the first double past uint64_t).
    if ((Key == "am-rounds" && Num > std::numeric_limits<unsigned>::max()) ||
        (Key == "evals" && Num >= 18446744073709551616.0))
      return diag::Diagnostic::error(
          "limits", "value '" + Val + "' for '" + Key + "' is out of range");
    if (Key == "am-rounds")
      L.MaxAmRounds = static_cast<unsigned>(Num);
    else if (Key == "growth")
      L.MaxInstrGrowth = Num;
    else if (Key == "evals")
      L.MaxSolverEvals = static_cast<uint64_t>(Num);
    else if (Key == "wall-ms")
      L.MaxWallMs = Num;
    else {
      diag::Diagnostic D = diag::Diagnostic::error(
          "limits", "unknown limit '" + Key + "'");
      D.note("known limits: am-rounds, growth, evals, wall-ms");
      return D;
    }
  }
  return L;
}

PipelineResult am::runPipeline(const FlowGraph &G, const std::string &Spec,
                               const PipelineOptions &Opts) {
  // When the caller owns a telemetry session, make it current for the
  // whole run so every AM_STAT_* / remark / profiler scope below lands in
  // it; otherwise inherit whatever session is already installed (or the
  // process default).
  std::optional<telemetry::SessionScope> SessionGuard;
  if (Opts.Telemetry)
    SessionGuard.emplace(*Opts.Telemetry);
  AM_SPAN(Span, "pipeline");
  Span.arg("spec", Spec);

  PipelineResult R;
  diag::Expected<std::vector<std::string>> Parsed = parsePassSpec(Spec);
  if (!Parsed.ok()) {
    R.Diag = Parsed.diagnostic();
    R.Error = R.Diag.Message;
    return R;
  }
  const std::vector<std::string> &Names = *Parsed;
  const bool Guarded = Opts.Guarded;
  const bool VerifyIR = Opts.VerifyIR || Guarded;

  AM_STAT_COUNTER(NumPipelines, "pipeline.runs");
  AM_STAT_COUNTER(NumPasses, "pipeline.passes");
  AM_STAT_COUNTER(NumRollbacks, "pipeline.rollbacks");
  AM_STAT_INC(NumPipelines);

  if (VerifyIR) {
    // A broken *input* is the caller's bug, not a pass's: report it as an
    // error instead of blaming (and rolling back) the first pass.
    VerifyResult VR = verifyGraph(G);
    if (!VR.ok()) {
      R.Diag = diag::Diagnostic::error(
          "pipeline", "input graph fails IR verification: " +
                          VR.renderText());
      R.Error = R.Diag.Message;
      return R;
    }
  }

  R.Graph = G;
  const uint64_t InputInstrs = G.numInstrs();
  auto &Reg = stats::Registry::get();
  const uint64_t Evals0 = Reg.counterValue("dfa.blocks_processed");
  const auto RunStart = std::chrono::steady_clock::now();

  for (const std::string &Name : Names) {
    AM_STAT_INC(NumPasses);

    FlowGraph Snapshot;
    if (Guarded)
      Snapshot = R.Graph;

    runOnePass(Name, R, Opts.Limits);
    PassRecord &Rec = R.Records.back();
    maybeCorruptEdge(R.Graph);

    // Guard checks: structural invariants first (a corrupt graph must not
    // reach the interpreter), then a semantic spot-check against the
    // snapshot.
    std::string Why;
    if (VerifyIR) {
      VerifyResult VR = verifyGraph(R.Graph);
      if (!VR.ok())
        Why = "IR verification failed: " + VR.renderText();
    }
    if (Why.empty() && Guarded) {
      for (uint64_t Round = 0; Round < Opts.EquivalenceRounds; ++Round) {
        Interpreter::Options IOpts;
        IOpts.MaxSteps = Opts.EquivalenceMaxSteps;
        EquivalenceReport Rep =
            checkEquivalent(Snapshot, R.Graph,
                            equivalenceInputs(Snapshot, Round), Round, IOpts);
        if (!Rep.Equivalent) {
          Why = "semantic check failed (round " + std::to_string(Round) +
                "): " + Rep.Detail;
          break;
        }
      }
    }

    if (!Why.empty()) {
      if (!Guarded) {
        // --verify-ir without rollback: stop at the first violation.
        R.Diag = diag::Diagnostic::error(
            "pipeline", "after pass '" + Name + "': " + Why);
        R.Error = R.Diag.Message;
        return R;
      }
      R.Graph = std::move(Snapshot);
      Rec.Status = PassStatus::RolledBack;
      Rec.Violation = Why;
      ++R.RollbackCount;
      AM_STAT_INC(NumRollbacks);
      R.Log.back() = Name + ": ROLLED BACK (" + Why + ")";
      if (AM_REMARKS_ENABLED()) {
        remarks::Remark Rem;
        Rem.K = remarks::Kind::Rollback;
        Rem.Pass = Name;
        Rem.fact("reason", Why);
        remarks::Sink::get().add(std::move(Rem));
      }
    }

    // The composite drivers snapshot their internal phases themselves;
    // this generic capture records every pass boundary, so single-pass
    // specs ("rae", "cp", ...) show up in the report too.
    if (report::RecorderSession *Rec2 = report::RecorderSession::current())
      Rec2->snapshot(R.Graph, Name);

    // Resource budgets, checked at pass boundaries: the pass that tripped
    // one commits (or rolls back) normally, then the pipeline stops with
    // a diagnostic and the partial records.
    if (Opts.Limits.any()) {
      std::string Exhausted;
      if (Opts.Limits.MaxInstrGrowth > 0.0 && InputInstrs > 0 &&
          static_cast<double>(R.Graph.numInstrs()) >
              Opts.Limits.MaxInstrGrowth * static_cast<double>(InputInstrs))
        Exhausted = "instruction growth " +
                    std::to_string(R.Graph.numInstrs()) + " exceeds " +
                    std::to_string(Opts.Limits.MaxInstrGrowth) + "x input (" +
                    std::to_string(InputInstrs) + ")";
      else if (Opts.Limits.MaxSolverEvals != 0 &&
               Reg.counterValue("dfa.blocks_processed") - Evals0 >
                   Opts.Limits.MaxSolverEvals)
        Exhausted = "solver evaluation budget " +
                    std::to_string(Opts.Limits.MaxSolverEvals) + " exceeded";
      else if (Opts.Limits.MaxWallMs > 0.0) {
        double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - RunStart)
                        .count();
        if (Ms > Opts.Limits.MaxWallMs)
          Exhausted = "wall-clock budget " +
                      std::to_string(Opts.Limits.MaxWallMs) + " ms exceeded";
      }
      if (!Exhausted.empty()) {
        Rec.Status = PassStatus::LimitExhausted;
        if (Rec.Violation.empty())
          Rec.Violation = Exhausted;
        R.LimitsExhausted = true;
        R.Diag = diag::Diagnostic::error(
            "pipeline",
            "resource budget exhausted after pass '" + Name + "': " +
                Exhausted);
        R.Error = R.Diag.Message;
        return R;
      }
    }
  }
  return R;
}

std::string am::passRecordsJson(const std::vector<PassRecord> &Records) {
  std::string Out;
  json::Writer W(Out);
  W.beginArray();
  for (const PassRecord &Rec : Records) {
    W.beginObject();
    W.key("name").value(Rec.Name);
    W.key("detail").value(Rec.Detail);
    W.key("wall_ms").value(Rec.WallMs);
    W.key("status").value(passStatusName(Rec.Status));
    if (!Rec.Violation.empty())
      W.key("violation").value(Rec.Violation);
    W.key("blocks_before").value(Rec.BlocksBefore);
    W.key("blocks_after").value(Rec.BlocksAfter);
    W.key("instrs_before").value(Rec.InstrsBefore);
    W.key("instrs_after").value(Rec.InstrsAfter);
    W.key("assigns_before").value(Rec.AssignsBefore);
    W.key("assigns_after").value(Rec.AssignsAfter);
    W.key("dfa_solves").value(Rec.DfaSolves);
    W.key("dfa_blocks_processed").value(Rec.DfaBlocksProcessed);
    W.key("am_rounds").value(Rec.AmRounds);
    W.key("am_eliminated").value(Rec.AmEliminated);
    W.key("am_hoist_rounds").value(Rec.AmHoistRounds);
    W.key("flush_inits_deleted").value(Rec.FlushInitsDeleted);
    W.key("flush_inits_sunk").value(Rec.FlushInitsSunk);
    W.endObject();
  }
  W.endArray();
  return Out;
}
