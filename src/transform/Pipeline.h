//===- transform/Pipeline.h - Named pass pipelines --------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composes the library's passes from a comma-separated specification,
/// e.g. "lcm,cp,lcm" (the paper's Section 6 EM+CP interleaving) or
/// "uniform,pde".  Every tool job reaches it through `runJob`
/// (job/Job.h): `amopt --passes=p1,p2,...` (or `--pass=p`), `ambatch`'s
/// corpus jobs and `ambench`'s pipeline presets; experiments that compare
/// pass orders call it directly.
///
/// Known pass names:
///   uniform      the full paper algorithm
///   am           assignment motion only (no init/flush)
///   init         the initialization phase alone
///   rae          one redundant-assignment-elimination pass
///   aht          one assignment-hoisting pass
///   flush        the final flush alone
///   lcm | bcm    lazy / busy code motion
///   restricted   restricted assignment motion (the Dhamdhere baseline)
///   cp           copy propagation
///   lvn          local value numbering
///   pde          partial dead code elimination
///   split        critical-edge splitting
///   simplify     drop skips and empty synthetic blocks
///
/// Guarded execution (PipelineOptions::Guarded): each pass's input is
/// snapshotted, the pass runs, then the IR invariants are verified
/// (verify/GraphVerifier.h) and semantic equivalence against the snapshot
/// is spot-checked via the interpreter.  A failing pass is *rolled back* —
/// the graph reverts to the snapshot, the PassRecord is marked RolledBack
/// with the violation attached, a remark and a `pipeline.rollbacks` stat
/// are emitted — and the remaining passes still run: one bad pass no
/// longer poisons the run.  PipelineLimits bound AM rounds, instruction
/// growth, solver evaluations and wall clock so adversarial inputs exhaust a
/// budget with a clean diagnostic and partial records instead of spinning.
///
//===----------------------------------------------------------------------===//

#ifndef AM_TRANSFORM_PIPELINE_H
#define AM_TRANSFORM_PIPELINE_H

#include "ir/FlowGraph.h"
#include "support/Diag.h"

#include <cstdint>
#include <string>
#include <vector>

namespace am {

namespace telemetry {
class Session;
} // namespace telemetry

/// How one pass of a run ended.
enum class PassStatus : uint8_t {
  Ok,             ///< Ran and committed.
  RolledBack,     ///< Guarded run detected corruption; input restored.
  LimitExhausted, ///< Pass committed but tripped a resource budget; the
                  ///< pipeline stopped after it.
};

const char *passStatusName(PassStatus S);

/// Structured record of one executed pass: what it was, how long it took,
/// how it changed the IR, and how hard the dataflow solver worked for it.
/// Benches and tests consume these instead of parsing log strings.
struct PassRecord {
  std::string Name;
  /// Free-text detail, e.g. "3 AM iterations, 4 eliminated".
  std::string Detail;
  /// Wall-clock time of the pass body.
  double WallMs = 0.0;

  /// Outcome of the pass under guarded execution (always Ok unguarded).
  PassStatus Status = PassStatus::Ok;
  /// For RolledBack/LimitExhausted: what the guard detected.
  std::string Violation;

  // IR deltas (before -> after this pass).
  uint64_t BlocksBefore = 0, BlocksAfter = 0;
  uint64_t InstrsBefore = 0, InstrsAfter = 0;
  uint64_t AssignsBefore = 0, AssignsAfter = 0;

  // Dataflow solver work attributed to this pass (deltas of the stats
  // registry's dfa.* counters around the pass body).
  uint64_t DfaSolves = 0;
  uint64_t DfaBlocksProcessed = 0;

  // AM fixpoint behaviour (uniform/am passes; zero elsewhere).
  uint64_t AmRounds = 0;
  uint64_t AmEliminated = 0;
  uint64_t AmHoistRounds = 0;

  // Final-flush behaviour (uniform/flush passes; zero elsewhere).
  uint64_t FlushInitsDeleted = 0;
  uint64_t FlushInitsSunk = 0;
};

/// Resource budgets for one pipeline run.  A zero field means unlimited.
/// When a budget is exhausted the pipeline stops with a clean diagnostic
/// and partial PassRecords (PipelineResult::LimitsExhausted) instead of
/// spinning or growing without bound.
struct PipelineLimits {
  /// Cap on AM fixpoint iterations per uniform/am pass.
  unsigned MaxAmRounds = 0;
  /// Max instruction count as a factor of the input's ("2.5" = the
  /// program may grow to 2.5x its input size).
  double MaxInstrGrowth = 0.0;
  /// Cumulative budget of dataflow transfer evaluations
  /// (`dfa.blocks_processed`) across the whole run (requires the stats
  /// registry to be enabled, which it is by default).
  uint64_t MaxSolverEvals = 0;
  /// Cumulative wall-clock budget in milliseconds, checked after each
  /// pass — the run's only deadline.
  double MaxWallMs = 0.0;

  bool any() const {
    return MaxAmRounds != 0 || MaxInstrGrowth > 0.0 ||
           MaxSolverEvals != 0 || MaxWallMs > 0.0;
  }
};

/// Parses a limits spec like "am-rounds=8,growth=2.5,evals=100000,
/// wall-ms=5000".  Unknown keys or malformed numbers are diagnostics, not
/// aborts.
diag::Expected<PipelineLimits> parseLimitsSpec(const std::string &Spec);

/// Execution mode of runPipeline.
struct PipelineOptions {
  /// Snapshot each pass's input, verify IR invariants and spot-check
  /// semantic equivalence after the pass body, and roll back on failure.
  bool Guarded = false;
  /// Verify IR invariants after every pass without snapshots or rollback;
  /// the pipeline stops at the first violation (a corrupt graph must not
  /// feed later passes).  Implied by Guarded.
  bool VerifyIR = false;
  /// Resource budgets (zero fields = unlimited).
  PipelineLimits Limits;
  /// Guarded equivalence spot-check: number of pseudo-random input rounds
  /// per pass and the interpreter step bound per round.  The bound keeps
  /// the check cheap on non-terminating inputs (both graphs run the same
  /// bounded prefix and compare traces); injected miscompiles diverge
  /// within a few hundred steps, so a small budget loses no detection.
  unsigned EquivalenceRounds = 4;
  uint64_t EquivalenceMaxSteps = 20000;
  /// Telemetry session to run under.  When set, runPipeline installs it
  /// for the duration of the run, so stats, remarks, profiler scopes and
  /// the recorder hook all land in this job's session instead of the
  /// calling thread's current one.  Null inherits the caller's session
  /// (or the process default) — the pre-session behaviour.
  telemetry::Session *Telemetry = nullptr;
};

/// Outcome of a pipeline run.
struct PipelineResult {
  FlowGraph Graph;
  /// One human-readable line per executed pass.
  std::vector<std::string> Log;
  /// One structured record per executed pass, parallel to Log; implicit
  /// on-demand edge splitting records as a pass named "(split)".
  std::vector<PassRecord> Records;
  /// Empty on success; otherwise names the unknown pass.
  std::string Error;
  /// Structured form of Error plus guarded-mode failures (rollbacks are
  /// *not* errors; this is set for spec errors, invalid input graphs,
  /// verify-only violations and budget exhaustion).
  diag::Diagnostic Diag;
  /// Number of passes rolled back under guarded execution.
  unsigned RollbackCount = 0;
  /// True if the run stopped because a PipelineLimits budget was hit.
  bool LimitsExhausted = false;

  bool ok() const { return Error.empty(); }
};

/// Splits \p Spec on commas and validates every name.  The empty pipeline
/// is a diagnostic, as is any unknown pass name.
diag::Expected<std::vector<std::string>> parsePassSpec(const std::string &Spec);

/// Splits \p Spec on commas and runs each named pass over \p G in order,
/// under the execution options \p Opts (guarded mode, IR verification,
/// resource limits).  Unknown names abort before anything runs.
PipelineResult runPipeline(const FlowGraph &G, const std::string &Spec,
                           const PipelineOptions &Opts = PipelineOptions());

/// True if \p Name is a known pass name.
bool isKnownPass(const std::string &Name);

/// Renders \p Records as a JSON array (one object per pass, snake_case
/// keys mirroring the PassRecord fields) — the `amopt --stats=json`
/// "passes" payload.
std::string passRecordsJson(const std::vector<PassRecord> &Records);

} // namespace am

#endif // AM_TRANSFORM_PIPELINE_H
