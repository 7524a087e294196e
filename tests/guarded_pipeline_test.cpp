//===- tests/guarded_pipeline_test.cpp - Guarded pipeline tests -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The robustness layer: Diagnostic/Expected plumbing, the IR invariant
// verifier on deliberately corrupted graphs, guarded-execution determinism
// (a guarded run with no faults is byte-identical to an unguarded one),
// and resource-budget exhaustion.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "figures/PaperFigures.h"
#include "ir/Patterns.h"
#include "ir/Printer.h"
#include "support/Diag.h"
#include "transform/Pipeline.h"
#include "transform/UniformEmAm.h"
#include "verify/GraphVerifier.h"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

using namespace am;
using test::parse;

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diag, RendersComponentLocationAndNotes) {
  diag::Diagnostic D = diag::Diagnostic::error("parse", "bad token", 3, 7);
  D.note("while reading a block");
  std::string Text = D.render();
  EXPECT_NE(Text.find("parse"), std::string::npos);
  EXPECT_NE(Text.find("3:7"), std::string::npos);
  EXPECT_NE(Text.find("error"), std::string::npos);
  EXPECT_NE(Text.find("bad token"), std::string::npos);
  EXPECT_NE(Text.find("note: while reading a block"), std::string::npos);
}

TEST(Diag, ExpectedCarriesValueOrDiagnostic) {
  diag::Expected<int> Ok(42);
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(*Ok, 42);

  diag::Expected<int> Err(diag::Diagnostic::error("t", "nope"));
  ASSERT_FALSE(Err.ok());
  EXPECT_EQ(Err.diagnostic().Message, "nope");
}

TEST(Diag, ParsePassSpecValidatesNames) {
  auto Ok = parsePassSpec("lcm, cp ,lcm");
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(Ok->size(), 3u);
  EXPECT_EQ((*Ok)[1], "cp");

  auto Unknown = parsePassSpec("lcm,bogus");
  ASSERT_FALSE(Unknown.ok());
  EXPECT_NE(Unknown.diagnostic().Message.find("bogus"), std::string::npos);

  auto Empty = parsePassSpec("  ,, ");
  ASSERT_FALSE(Empty.ok());
  EXPECT_EQ(Empty.diagnostic().Message, "empty pipeline");
}

TEST(Diag, ParseLimitsSpec) {
  auto L = parseLimitsSpec("am-rounds=8,growth=2.5,evals=100000,wall-ms=50");
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(L->MaxAmRounds, 8u);
  EXPECT_DOUBLE_EQ(L->MaxInstrGrowth, 2.5);
  EXPECT_EQ(L->MaxSolverEvals, 100000u);
  EXPECT_DOUBLE_EQ(L->MaxWallMs, 50.0);
  EXPECT_TRUE(L->any());

  EXPECT_TRUE(parseLimitsSpec("").ok());
  EXPECT_FALSE((*parseLimitsSpec("")).any());
  EXPECT_FALSE(parseLimitsSpec("growth").ok());
  EXPECT_FALSE(parseLimitsSpec("growth=abc").ok());
  EXPECT_FALSE(parseLimitsSpec("growth=-1").ok());
  EXPECT_FALSE(parseLimitsSpec("frobs=3").ok());
  // Non-finite values and values past the field's type would be
  // undefined behaviour to cast.
  EXPECT_FALSE(parseLimitsSpec("growth=nan").ok());
  EXPECT_FALSE(parseLimitsSpec("evals=inf").ok());
  EXPECT_FALSE(parseLimitsSpec("am-rounds=1e20").ok());
  EXPECT_FALSE(parseLimitsSpec("wall-ms=inf").ok());
}

//===----------------------------------------------------------------------===//
// GraphVerifier on corrupted graphs
//===----------------------------------------------------------------------===//

namespace {

bool hasKind(const VerifyResult &R, ViolationKind K) {
  for (const Violation &V : R.Violations)
    if (V.K == K)
      return true;
  return false;
}

} // namespace

TEST(GraphVerifier, AcceptsTheFigures) {
  for (FlowGraph (*Fig)() : {figure1a, figure2a, figure4, figure8}) {
    VerifyResult R = verifyGraph(Fig());
    EXPECT_TRUE(R.ok()) << R.renderText();
  }
}

TEST(GraphVerifier, CatchesAsymmetricEdges) {
  FlowGraph G = figure4();
  // Rewire one successor without updating the predecessor list.
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    if (B == G.end() || G.block(B).Succs.empty())
      continue;
    G.block(B).Succs[0] = G.end() == G.block(B).Succs[0] ? G.start() : G.end();
    break;
  }
  VerifyResult R = verifyGraph(G);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::Adjacency)) << R.renderText();
}

TEST(GraphVerifier, CatchesOutOfRangeSuccessor) {
  FlowGraph G = figure4();
  G.block(G.start()).Succs.push_back(G.numBlocks() + 7);
  VerifyResult R = verifyGraph(G);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::Adjacency));
}

TEST(GraphVerifier, CatchesUnreachableBlocks) {
  FlowGraph G = parse("program { x := a + b; out(x); }");
  // A floating block pointing at the end, never entered from start.
  BlockId Stray = G.addBlock();
  G.addEdge(Stray, G.end());
  VerifyResult R = verifyGraph(G);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::Reachability)) << R.renderText();
}

TEST(GraphVerifier, CatchesUnknownVariableReferences) {
  FlowGraph G = parse("program { x := a + b; out(x); }");
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (Instr &I : G.block(B).Instrs)
      if (I.isAssign()) {
        I.Lhs = makeVarId(static_cast<uint32_t>(G.Vars.size()) + 100);
        goto corrupted;
      }
corrupted:
  VerifyResult R = verifyGraph(G);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::VarRef)) << R.renderText();
}

TEST(GraphVerifier, CatchesDuplicateInstrIds) {
  FlowGraph G = figure4();
  uint32_t Next = 1;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (Instr &I : G.block(B).Instrs)
      I.Id = Next < 3 ? Next++ : 1; // third and later collide with #1
  VerifyResult R = verifyGraph(G);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::DuplicateInstrId));
}

TEST(GraphVerifier, FlagsCriticalEdgesOnlyWhenRequired) {
  FlowGraph G = figure10a();
  ASSERT_TRUE(G.hasCriticalEdges());
  EXPECT_TRUE(verifyGraph(G).ok());
  VerifierOptions Opts;
  Opts.RequireSplitEdges = true;
  VerifyResult R = verifyGraph(G, Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::CriticalEdge));

  G.splitCriticalEdges();
  EXPECT_TRUE(verifyGraph(G, Opts).ok());
}

TEST(GraphVerifier, ViolationCapIsHonored) {
  FlowGraph G = figure4();
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (Instr &I : G.block(B).Instrs)
      I.Id = 7; // every instruction collides
  VerifierOptions Opts;
  Opts.MaxViolations = 3;
  VerifyResult R = verifyGraph(G, Opts);
  EXPECT_LE(R.Violations.size(), 3u);
}

TEST(GraphVerifier, PatternCoherence) {
  FlowGraph G = figure4();
  AssignPatternTable Pats;
  Pats.build(G);
  EXPECT_TRUE(verifyPatternCoherence(G, Pats).ok());
  // Mutate the graph after building the table: a brand-new assignment
  // shape no longer resolves.
  VarId Z = G.Vars.getOrCreate("zfresh$");
  G.block(G.start())
      .Instrs.insert(G.block(G.start()).Instrs.begin(),
                     Instr::assign(Z, Term::binary(OpCode::Mul,
                                                   Operand::var(Z),
                                                   Operand::var(Z))));
  VerifyResult R = verifyPatternCoherence(G, Pats);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(hasKind(R, ViolationKind::PatternTable)) << R.renderText();
}

//===----------------------------------------------------------------------===//
// Guarded execution
//===----------------------------------------------------------------------===//

TEST(GuardedPipeline, ZeroFaultRunIsByteIdenticalToUnguarded) {
  for (const char *Spec : {"uniform", "lcm,cp,lcm", "uniform,pde,simplify",
                           "split,init,rae,aht,flush,simplify"}) {
    PipelineResult Plain = runPipeline(figure4(), Spec);
    PipelineOptions Opts;
    Opts.Guarded = true;
    PipelineResult Guarded = runPipeline(figure4(), Spec, Opts);
    ASSERT_TRUE(Plain.ok()) << Plain.Error;
    ASSERT_TRUE(Guarded.ok()) << Guarded.Error;
    EXPECT_EQ(Guarded.RollbackCount, 0u);
    EXPECT_EQ(printGraph(Guarded.Graph), printGraph(Plain.Graph))
        << "spec: " << Spec;
    for (const PassRecord &Rec : Guarded.Records)
      EXPECT_EQ(Rec.Status, PassStatus::Ok) << Rec.Name << ": "
                                            << Rec.Violation;
  }
}

TEST(GuardedPipeline, VerifyIrModeAcceptsCleanRuns) {
  PipelineOptions Opts;
  Opts.VerifyIR = true;
  PipelineResult R = runPipeline(figure4(), "uniform,pde", Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.RollbackCount, 0u);
}

TEST(GuardedPipeline, RejectsCorruptInputGraph) {
  FlowGraph G = figure4();
  G.block(G.start()).Succs.push_back(G.numBlocks() + 3);
  PipelineOptions Opts;
  Opts.Guarded = true;
  PipelineResult R = runPipeline(G, "uniform", Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.Records.empty());
  EXPECT_NE(R.Diag.Message.find("input graph"), std::string::npos)
      << R.Diag.Message;
}

TEST(GuardedPipeline, SpecErrorsProduceDiagnostics) {
  PipelineOptions Opts;
  PipelineResult R = runPipeline(figure4(), "lcm,bogus", Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_FALSE(R.Diag.empty());
  EXPECT_EQ(R.Error, "unknown pass 'bogus'");
}

//===----------------------------------------------------------------------===//
// Resource budgets
//===----------------------------------------------------------------------===//

TEST(PipelineLimitsTest, GrowthBudgetStopsTheRun) {
  // The uniform pass grows the running example (temp initializations);
  // an absurdly tight growth budget must trip after it.
  PipelineOptions Opts;
  Opts.Limits.MaxInstrGrowth = 1.0001;
  PipelineResult R = runPipeline(figure4(), "split,init,rae", Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.LimitsExhausted);
  ASSERT_FALSE(R.Records.empty());
  EXPECT_EQ(R.Records.back().Status, PassStatus::LimitExhausted);
  EXPECT_NE(R.Records.back().Violation.find("growth"), std::string::npos);
  EXPECT_NE(R.Error.find("budget exhausted"), std::string::npos);
}

TEST(PipelineLimitsTest, EvalBudgetStopsTheGuardedPaperPipeline) {
  // The Table 1-3 solves count their transfer evaluations like every
  // other solve, so the budget bites on the paper's own pipeline.
  std::ifstream In(std::string(AM_EXAMPLES_DIR) + "/filter_kernel.am");
  std::stringstream Src;
  Src << In.rdbuf();
  PipelineOptions Opts;
  Opts.Guarded = true;
  Opts.Limits.MaxSolverEvals = 1;
  PipelineResult R = runPipeline(parse(Src.str()), "uniform", Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.LimitsExhausted);
  ASSERT_FALSE(R.Records.empty());
  EXPECT_EQ(R.Records.back().Name, "uniform");
  EXPECT_EQ(R.Records.back().Status, PassStatus::LimitExhausted);
  EXPECT_NE(R.Error.find("solver evaluation budget 1 exceeded"),
            std::string::npos)
      << R.Error;
}

TEST(PipelineLimitsTest, WallClockBudgetStopsTheRun) {
  PipelineOptions Opts;
  Opts.Limits.MaxWallMs = 1e-9; // any pass exceeds a nanosecond-scale budget
  PipelineResult R = runPipeline(figure4(), "uniform,pde,simplify", Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.LimitsExhausted);
  // The run stopped after the first pass; the rest never executed.
  EXPECT_LT(R.Records.size(), 3u);
}

TEST(PipelineLimitsTest, AmRoundCapIsPlumbedIntoTheFixpoint) {
  PipelineOptions Opts;
  Opts.Limits.MaxAmRounds = 1;
  PipelineResult R = runPipeline(figure4(), "uniform", Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  const PassRecord *Uniform = nullptr;
  for (const PassRecord &Rec : R.Records)
    if (Rec.Name == "uniform")
      Uniform = &Rec;
  ASSERT_NE(Uniform, nullptr);
  EXPECT_LE(Uniform->AmRounds, 1u);

  UniformStats Free;
  runUniformEmAm(figure4(), UniformOptions(), &Free);
  EXPECT_GT(Free.AmPhase.Iterations, 1u)
      << "figure4 should need several AM rounds for this test to bite";
}

TEST(PipelineLimitsTest, UnlimitedBudgetsNeverTrip) {
  PipelineOptions Opts; // all limits zero
  EXPECT_FALSE(Opts.Limits.any());
  PipelineResult R = runPipeline(figure4(), "uniform,pde,simplify", Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_FALSE(R.LimitsExhausted);
}

TEST(PipelineLimitsTest, RecordsRenderStatusInJson) {
  PipelineOptions Opts;
  Opts.Limits.MaxInstrGrowth = 1.0001;
  PipelineResult R = runPipeline(figure4(), "split,init,rae", Opts);
  std::string Json = passRecordsJson(R.Records);
  EXPECT_NE(Json.find("\"status\":\"limit-exhausted\""), std::string::npos)
      << Json;
}
