//===- tests/fault_injection_test.cpp - Fault detection matrix -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The detection matrix: every fault class must (a) actually fire on the
// chosen program — firedCount() proves the matrix is not vacuous — and
// (b) be detected and rolled back by the guarded pipeline, leaving the
// output byte-identical to a fault-free run.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "figures/PaperFigures.h"
#include "ir/Printer.h"
#include "transform/Pipeline.h"
#include "verify/FaultInjector.h"

#include <gtest/gtest.h>

using namespace am;

namespace {

const fault::FaultClass AllClasses[] = {
    fault::FaultClass::RaeFlipBit,
    fault::FaultClass::AhtSkipBlockage,
    fault::FaultClass::AhtMisplaceInsert,
    fault::FaultClass::CorruptEdge,
};

PipelineOptions guarded() {
  PipelineOptions Opts;
  Opts.Guarded = true;
  return Opts;
}

} // namespace

TEST(FaultSpec, ParsesClassAndSite) {
  auto Plain = fault::parseFaultSpec("rae-flip");
  ASSERT_TRUE(Plain.ok());
  EXPECT_EQ(Plain->first, fault::FaultClass::RaeFlipBit);
  EXPECT_EQ(Plain->second, 0u);

  auto Sited = fault::parseFaultSpec("edge-corrupt:3");
  ASSERT_TRUE(Sited.ok());
  EXPECT_EQ(Sited->first, fault::FaultClass::CorruptEdge);
  EXPECT_EQ(Sited->second, 3u);

  EXPECT_FALSE(fault::parseFaultSpec("frobnicate").ok());
  EXPECT_FALSE(fault::parseFaultSpec("svc-worker-throw").ok());
  EXPECT_FALSE(fault::parseFaultSpec("rae-flip:x").ok());
  EXPECT_FALSE(fault::parseFaultSpec("").ok());
}

TEST(FaultSpec, ClassNamesRoundTrip) {
  for (fault::FaultClass C : AllClasses) {
    fault::FaultClass Parsed;
    ASSERT_TRUE(fault::parseFaultClass(fault::faultClassName(C), Parsed))
        << fault::faultClassName(C);
    EXPECT_EQ(Parsed, C);
  }
}

TEST(FaultInjectorTest, FiresExactlyOnceAtTheArmedSite) {
  fault::FaultInjector FI;
  FI.arm(fault::FaultClass::RaeFlipBit, 2);
  EXPECT_FALSE(FI.fire(fault::FaultClass::RaeFlipBit)); // site 0
  EXPECT_FALSE(FI.fire(fault::FaultClass::RaeFlipBit)); // site 1
  EXPECT_TRUE(FI.fire(fault::FaultClass::RaeFlipBit));  // site 2
  EXPECT_FALSE(FI.fire(fault::FaultClass::RaeFlipBit)); // never again
  EXPECT_EQ(FI.firedCount(), 1u);
  // Unarmed classes never fire.
  EXPECT_FALSE(FI.fire(fault::FaultClass::CorruptEdge));
  FI.resetCounters();
  EXPECT_FALSE(FI.fire(fault::FaultClass::RaeFlipBit)); // site 0 again
}

// The core matrix: each class injected into a guarded uniform run on the
// running example must fire, be detected, and be rolled back, and the
// final program must equal the fault-free guarded result (the rolled-back
// pass contributes nothing, later passes still run on the clean graph).
TEST(FaultMatrix, EveryClassIsDetectedAndRolledBack) {
  const FlowGraph Input = figure4();
  const std::string Spec = "uniform";
  const PipelineResult Clean = runPipeline(Input, Spec, guarded());
  ASSERT_TRUE(Clean.ok()) << Clean.Error;
  ASSERT_EQ(Clean.RollbackCount, 0u);

  for (fault::FaultClass C : AllClasses) {
    fault::FaultInjector FI;
    FI.arm(C);
    FI.install();
    PipelineResult R = runPipeline(Input, Spec, guarded());
    FI.uninstall();

    EXPECT_EQ(FI.firedCount(), 1u)
        << fault::faultClassName(C) << " never fired: the matrix is vacuous";
    EXPECT_TRUE(R.ok()) << R.Error; // rollbacks are recoveries, not errors
    EXPECT_GE(R.RollbackCount, 1u)
        << fault::faultClassName(C) << " fired but was not rolled back";

    bool SawRollback = false;
    for (const PassRecord &Rec : R.Records)
      if (Rec.Status == PassStatus::RolledBack) {
        SawRollback = true;
        EXPECT_FALSE(Rec.Violation.empty());
      }
    EXPECT_TRUE(SawRollback) << fault::faultClassName(C);

    // The faulty pass was rolled back, so the run degenerates to "no pass
    // changed anything": the output must equal the *input*.
    EXPECT_EQ(printGraph(R.Graph), printGraph(Input))
        << fault::faultClassName(C)
        << ": rollback did not restore the snapshot";
  }
}

// The structural fault must be caught by the cheap IR verifier alone —
// --verify-ir without snapshots stops the run with a diagnostic.
TEST(FaultMatrix, EdgeCorruptionIsCaughtByVerifyIrAlone) {
  fault::FaultInjector FI;
  FI.arm(fault::FaultClass::CorruptEdge);
  FI.install();
  PipelineOptions Opts;
  Opts.VerifyIR = true;
  PipelineResult R = runPipeline(figure4(), "uniform", Opts);
  FI.uninstall();

  EXPECT_EQ(FI.firedCount(), 1u);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("IR verification failed"), std::string::npos)
      << R.Error;
  EXPECT_FALSE(R.Diag.empty());
}

// An armed fault whose site index is never reached must be a no-op: the
// guarded run fires nothing, rolls back nothing, and produces exactly the
// clean result.
TEST(FaultMatrix, UnreachedSiteIsANoOp) {
  const FlowGraph Input = figure4();
  const PipelineResult Clean = runPipeline(Input, "uniform", guarded());

  for (fault::FaultClass C : AllClasses) {
    fault::FaultInjector FI;
    FI.arm(C, 1000000); // far beyond any real opportunity count
    FI.install();
    PipelineResult R = runPipeline(Input, "uniform", guarded());
    FI.uninstall();

    EXPECT_EQ(FI.firedCount(), 0u) << fault::faultClassName(C);
    EXPECT_EQ(R.RollbackCount, 0u) << fault::faultClassName(C);
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(printGraph(R.Graph), printGraph(Clean.Graph))
        << fault::faultClassName(C);
  }
}

// Rollback determinism: injecting the same fault twice produces the same
// records, the same violation text, and the same output, run to run.
TEST(FaultMatrix, RollbackIsDeterministic) {
  const FlowGraph Input = figure4();
  std::string FirstOutput, FirstViolation;
  for (int Run = 0; Run < 2; ++Run) {
    fault::FaultInjector FI;
    FI.arm(fault::FaultClass::RaeFlipBit);
    FI.install();
    PipelineResult R = runPipeline(Input, "uniform", guarded());
    FI.uninstall();
    ASSERT_EQ(FI.firedCount(), 1u);
    ASSERT_GE(R.RollbackCount, 1u);
    std::string Violation;
    for (const PassRecord &Rec : R.Records)
      if (Rec.Status == PassStatus::RolledBack)
        Violation += Rec.Violation + "\n";
    if (Run == 0) {
      FirstOutput = printGraph(R.Graph);
      FirstViolation = Violation;
    } else {
      EXPECT_EQ(printGraph(R.Graph), FirstOutput);
      EXPECT_EQ(Violation, FirstViolation);
    }
  }
}

// Faults injected into an *unguarded* run are the disease the guard
// exists for: the semantic ones silently change program behaviour.  This
// pins down that the injection itself is real (not detected-by-accident
// inside the pass) for at least the rae bit flip.
TEST(FaultMatrix, UnguardedRaeFlipSilentlyCorrupts) {
  const FlowGraph Input = figure4();
  const PipelineResult Clean = runPipeline(Input, "uniform");
  ASSERT_TRUE(Clean.ok());

  fault::FaultInjector FI;
  FI.arm(fault::FaultClass::RaeFlipBit);
  FI.install();
  PipelineResult R = runPipeline(Input, "uniform");
  FI.uninstall();

  ASSERT_EQ(FI.firedCount(), 1u);
  ASSERT_TRUE(R.ok()) << "unguarded runs do not detect anything";
  EXPECT_NE(printGraph(R.Graph), printGraph(Clean.Graph))
      << "the injected fault had no observable effect; the matrix test "
         "would be vacuous";
}
