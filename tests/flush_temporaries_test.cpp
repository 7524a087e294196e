//===- tests/flush_temporaries_test.cpp - Flush over temp operands -------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The final flush on programs whose temporary initializations read other
// temporaries (`h6 := -3 + h4`), the shape `lcm,cp,pde` leaves and the
// uniform pipeline never produces itself.  A deleted instance that reads
// a temporary at that temporary's latest point must keep it initialized:
// the instance's re-materialization reads it later.
//
//===----------------------------------------------------------------------===//

#include "gen/RandomProgram.h"
#include "interp/Equivalence.h"
#include "ir/Printer.h"
#include "parser/Parser.h"
#include "transform/FinalFlush.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

using namespace am;

namespace {

/// The lcm,cp,pde output of irreducible CFG \p Seed: temporaries read as
/// operands of other initializations.
FlowGraph withTemporaryOperands(uint64_t Seed) {
  PipelineResult R = runPipeline(generateIrreducibleCfg(Seed), "lcm,cp,pde");
  EXPECT_TRUE(R.ok()) << R.Error;
  return R.Graph;
}

} // namespace

TEST(FlushTemporaries, InstanceReadingATemporaryKeepsItInitialized) {
  ParseResult P = parseCfg(R"(graph {
temp h1, h4, h6
b0:
  h1 := a + 2
  h4 := -2 * h1
  h6 := -3 + h4
  x := h6
  out(x)
  halt
})");
  ASSERT_TRUE(P.ok()) << P.Error;
  FlowGraph Out = P.Graph;
  EXPECT_TRUE(runFinalFlush(Out));
  // h1's latest point is h4's deleted instance, where it is not usable
  // afterwards: it is initialized there, and h4's re-materialization
  // reads it.  h6's single use is reconstructed.
  EXPECT_EQ(printGraph(Out), R"(graph {
temp h1, h4
b0:    # start, end
  h1 := a + 2
  h4 := -2 * h1
  x := -3 + h4
  out(x)
  halt
}
)");
  for (uint64_t Round = 0; Round < 4; ++Round) {
    EquivalenceReport Rep = checkEquivalent(
        P.Graph, Out, equivalenceInputs(P.Graph, Round), Round);
    EXPECT_TRUE(Rep.Equivalent) << Rep.Detail;
  }
}

TEST(FlushTemporaries, IrreducibleSeed28CommitsUnderGuard) {
  PipelineOptions Opts;
  Opts.Guarded = true;
  PipelineResult R =
      runPipeline(withTemporaryOperands(28), "init,am,flush", Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.RollbackCount, 0u);
}

TEST(FlushTemporaries, IrreducibleSweepNeverRollsBackAtFlush) {
  PipelineOptions Opts;
  Opts.Guarded = true;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    PipelineResult R = runPipeline(generateIrreducibleCfg(Seed),
                                   "lcm,cp,pde,init,am,flush", Opts);
    ASSERT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Error;
    ASSERT_FALSE(R.Records.empty());
    const PassRecord &Flush = R.Records.back();
    ASSERT_EQ(Flush.Name, "flush");
    EXPECT_EQ(Flush.Status, PassStatus::Ok)
        << "seed " << Seed << ": " << Flush.Violation;
  }
}
