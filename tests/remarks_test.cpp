//===- tests/remarks_test.cpp - Optimization remark subsystem ------------===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// Covers the remark sink and provenance DAG, the remark/stat coherence
// contract (one Eliminate remark per am.eliminated tick, one DeleteInit
// per flush.inits_deleted, ...), the terminal-remark uniqueness property
// (every instruction that leaves the program is accounted for by exactly
// one terminal remark), the remark verifier over the paper's figures and
// a random corpus, and the zero-observable-effect guarantee (collection
// never changes the optimized program).
//
//===----------------------------------------------------------------------===//

#include "figures/PaperFigures.h"
#include "gen/RandomProgram.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "support/Json.h"
#include "support/Remarks.h"
#include "support/Stats.h"
#include "parser/Parser.h"
#include "transform/AssignmentMotion.h"
#include "transform/Pipeline.h"
#include "transform/UniformEmAm.h"
#include "verify/RemarkVerifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace am;
using namespace am::remarks;

namespace {

/// The paper figures the remark tests sweep (program builders).
const std::vector<std::pair<const char *, FlowGraph (*)()>> &figureSet() {
  static const std::vector<std::pair<const char *, FlowGraph (*)()>> Figures = {
      {"figure1a", figure1a}, {"figure2a", figure2a},   {"figure4", figure4},
      {"figure7", figure7},   {"figure8", figure8},     {"figure10a", figure10a},
      {"figure16", figure16}, {"figure18b", figure18b},
  };
  return Figures;
}

/// Runs the uniform pipeline on \p G with collection on and a primed
/// sink; returns the optimized graph with the sink left populated.
FlowGraph runCollected(const FlowGraph &G) {
  FlowGraph Input = G;
  Sink::get().clear();
  ensureInstrIds(Input);
  return runUniformEmAm(Input);
}

/// The lcm,cp,pde outputs of irreducible CFGs 1-40: initializations
/// that read other temporaries, the only inputs on which the flush's
/// commit-gated remarks see temporaries as operands.
const std::vector<FlowGraph> &temporaryOperandCorpus() {
  static const std::vector<FlowGraph> Corpus = [] {
    std::vector<FlowGraph> Out;
    for (uint64_t Seed = 1; Seed <= 40; ++Seed)
      Out.push_back(
          runPipeline(generateIrreducibleCfg(Seed), "lcm,cp,pde").Graph);
    return Out;
  }();
  return Corpus;
}

/// Every instruction id present in \p G.
std::set<uint32_t> idsIn(const FlowGraph &G) {
  std::set<uint32_t> Ids;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs)
      if (I.Id != 0)
        Ids.insert(I.Id);
  return Ids;
}

} // namespace

TEST(RemarksSink, DisabledSinkDropsEverything) {
  Sink::get().clear();
  ASSERT_FALSE(Sink::get().enabled());
  Remark R;
  R.K = Kind::Eliminate;
  R.InstrId = 7;
  Sink::get().add(R);
  EXPECT_EQ(Sink::get().size(), 0u);

  // With collection off the pipeline assigns no ids and emits no remarks.
  FlowGraph Out = runUniformEmAm(figure4());
  EXPECT_EQ(Sink::get().size(), 0u);
  EXPECT_TRUE(idsIn(Out).empty());
}

TEST(RemarksSink, CollectsAndCountsByKind) {
  CollectionScope On;
  Sink::get().clear();
  Remark A;
  A.K = Kind::Eliminate;
  A.InstrId = Sink::get().freshId();
  A.fact("N-REDUNDANT", "1");
  Sink::get().add(A);
  Remark B;
  B.K = Kind::Hoist;
  B.Act = Action::Insert;
  B.InstrId = Sink::get().freshId();
  Sink::get().add(B);
  EXPECT_EQ(Sink::get().size(), 2u);
  EXPECT_EQ(Sink::get().countKind(Kind::Eliminate), 1u);
  EXPECT_EQ(Sink::get().countKind(Kind::Hoist), 1u);
  EXPECT_EQ(Sink::get().countKind(Kind::SinkInit), 0u);
  EXPECT_EQ(Sink::get().remarks()[0].factValue("N-REDUNDANT"), "1");
  EXPECT_EQ(Sink::get().remarks()[0].factValue("missing"), "");

  // clear() resets the id counter so reruns number deterministically.
  Sink::get().clear();
  EXPECT_EQ(Sink::get().size(), 0u);
  EXPECT_EQ(Sink::get().freshId(), 1u);
}

TEST(RemarksSink, PassAndRoundContextStamped) {
  CollectionScope On;
  Sink::get().clear();
  {
    PassScope Pass("rae");
    Sink::get().setRound(3);
    Remark R;
    R.K = Kind::Eliminate;
    Sink::get().add(R);
    Sink::get().setRound(0);
  }
  ASSERT_EQ(Sink::get().size(), 1u);
  EXPECT_EQ(Sink::get().remarks()[0].Pass, "rae");
  EXPECT_EQ(Sink::get().remarks()[0].Round, 3u);
}

TEST(RemarksSink, JsonPayloadValidates) {
  CollectionScope On;
  runCollected(figure4());
  ASSERT_GT(Sink::get().size(), 0u);
  std::string Err;
  EXPECT_TRUE(json::validate(Sink::get().toJsonString(), &Err)) << Err;
}

/// Rebuilds block 0 of \p G with aht's remark pattern: removes the
/// instructions \p Removed, inserts `x := a + b` (key 0) at each of
/// \p At; returns whether it committed.
bool rebuildWithRemarks(FlowGraph &G, BlockRebuilder &Rebuild,
                        std::vector<uint32_t> Removed,
                        std::vector<uint32_t> At) {
  const Instr Pattern = G.block(0).Instrs[0];
  std::vector<BlockRebuilder::Insert> Inserts;
  for (uint32_t Idx : At)
    Inserts.push_back({Idx, 0});
  auto Make = [&](size_t, size_t NewIdx) {
    Instr New = Pattern;
    New.Id = Sink::get().freshId();
    Rebuild.remark(describe(Kind::Hoist, G, 0, NewIdx, New, 1), 0,
                   BlockRebuilder::Role::Insert);
    return New;
  };
  auto Remove = [&](size_t Idx) {
    if (std::find(Removed.begin(), Removed.end(), Idx) == Removed.end())
      return false;
    Rebuild.remark(describe(Kind::Hoist, G, 0, Idx, G.block(0).Instrs[Idx], 1),
                   0, BlockRebuilder::Role::Remove);
    return true;
  };
  return Rebuild.rebuild(G, 0, Inserts, Make, Remove);
}

std::vector<uint32_t> idsOf(const FlowGraph &G) {
  std::vector<uint32_t> Ids;
  for (const Instr &I : G.block(0).Instrs)
    Ids.push_back(I.Id);
  return Ids;
}

/// A rebuild that reproduces its block — moving an occurrence onto an
/// equal neighbour's place, or removing one and inserting its copy where
/// it was — commits nothing: the block keeps its instructions, their ids
/// and its tick, no remark is published, and the fresh ids the inserts
/// drew are spent exactly as on a commit, so later ids do not move.  A
/// rebuild that changes the list carries each kept instruction's own id.
TEST(RemarksRebuild, NoOpRebuildKeepsIdsAndPublishesNothing) {
  CollectionScope On;
  Sink::get().clear();
  FlowGraph G =
      parseProgram("program { x := a + b; x := a + b; out(x); }").Graph;
  ensureInstrIds(G);
  std::vector<uint32_t> Ids = idsOf(G);
  Tick Before = G.blockTick(0);
  uint32_t NextId = Ids.back() + 1;

  BlockRebuilder Rebuild(1);
  // Remove the first, insert a copy before the last: [x1, x2, out] again.
  EXPECT_FALSE(rebuildWithRemarks(G, Rebuild, {0}, {2}));
  // Remove the second, insert a copy in its place.
  EXPECT_FALSE(rebuildWithRemarks(G, Rebuild, {1}, {1}));
  EXPECT_EQ(idsOf(G), Ids);
  EXPECT_EQ(G.blockTick(0), Before);
  EXPECT_EQ(Rebuild.noops(), 2u);
  EXPECT_EQ(Rebuild.commits(), 0u);
  Rebuild.publish();
  EXPECT_EQ(Sink::get().size(), 0u);
  NextId += 2;
  EXPECT_EQ(Sink::get().freshId(), NextId++);

  // Remove the first, insert a copy after the last: [x2, out, new].
  EXPECT_TRUE(rebuildWithRemarks(G, Rebuild, {0}, {3}));
  EXPECT_EQ(idsOf(G), (std::vector<uint32_t>{Ids[1], Ids[2], NextId}));
  EXPECT_GT(G.blockTick(0), Before);
  EXPECT_EQ(Rebuild.commits(), 1u);
  Rebuild.publish();
  ASSERT_EQ(Sink::get().size(), 2u);
  EXPECT_EQ(Sink::get().remarks()[1].Parents,
            (std::vector<uint32_t>{Ids[0]}));
}

TEST(RemarksCoherence, CountsMatchStatCountersOnFigures) {
  CollectionScope On;
  for (const auto &[Name, Build] : figureSet()) {
    stats::Registry::get().resetAll();
    Sink::get().clear();
    FlowGraph Input = Build();
    ensureInstrIds(Input);
    runUniformEmAm(Input);

    const stats::Counter *Elim =
        stats::Registry::get().findCounter("am.eliminated");
    const stats::Counter *Deleted =
        stats::Registry::get().findCounter("flush.inits_deleted");
    const stats::Counter *Sunk =
        stats::Registry::get().findCounter("flush.inits_sunk");
    EXPECT_EQ(Sink::get().countKind(Kind::Eliminate), Elim ? Elim->get() : 0)
        << Name;
    EXPECT_EQ(Sink::get().countKind(Kind::DeleteInit),
              Deleted ? Deleted->get() : 0)
        << Name;
    EXPECT_EQ(Sink::get().countKind(Kind::SinkInit), Sunk ? Sunk->get() : 0)
        << Name;
  }
}

TEST(RemarksCoherence, CountsMatchStatCountersOnCorpus) {
  CollectionScope On;
  for (uint64_t Seed = 0; Seed < 25; ++Seed) {
    stats::Registry::get().resetAll();
    Sink::get().clear();
    FlowGraph Input = generateStructuredProgram(Seed);
    ensureInstrIds(Input);
    runUniformEmAm(Input);

    const stats::Counter *Elim =
        stats::Registry::get().findCounter("am.eliminated");
    const stats::Counter *Deleted =
        stats::Registry::get().findCounter("flush.inits_deleted");
    EXPECT_EQ(Sink::get().countKind(Kind::Eliminate), Elim ? Elim->get() : 0)
        << "seed " << Seed;
    EXPECT_EQ(Sink::get().countKind(Kind::DeleteInit),
              Deleted ? Deleted->get() : 0)
        << "seed " << Seed;
  }
}

TEST(RemarksCoherence, CountsMatchStatCountersOnTemporaryOperands) {
  CollectionScope On;
  unsigned Sunk = 0;
  for (size_t Idx = 0; Idx < temporaryOperandCorpus().size(); ++Idx) {
    stats::Registry::get().resetAll();
    runCollected(temporaryOperandCorpus()[Idx]);
    auto Count = [](const char *Name) -> uint64_t {
      const stats::Counter *C = stats::Registry::get().findCounter(Name);
      return C ? C->get() : 0;
    };
    EXPECT_EQ(Sink::get().countKind(Kind::Eliminate), Count("am.eliminated"))
        << "seed " << Idx + 1;
    EXPECT_EQ(Sink::get().countKind(Kind::DeleteInit),
              Count("flush.inits_deleted"))
        << "seed " << Idx + 1;
    EXPECT_EQ(Sink::get().countKind(Kind::SinkInit), Count("flush.inits_sunk"))
        << "seed " << Idx + 1;
    Sunk += Sink::get().countKind(Kind::SinkInit);
  }
  EXPECT_GT(Sunk, 0u);
}

// Every assignment that enters or is created by the pipeline either
// survives to the output or is the subject of *exactly one* terminal
// remark — nothing disappears unexplained, nothing is deleted twice.
TEST(RemarksProperty, EveryDeletedIdHasExactlyOneTerminalRemark) {
  CollectionScope On;
  for (uint64_t Seed = 0; Seed < 120; ++Seed) {
    Sink::get().clear();
    FlowGraph Input = generateStructuredProgram(Seed);
    ensureInstrIds(Input);
    FlowGraph Out = runUniformEmAm(Input);

    // Universe: input assignments that survive normalization (skips and
    // `x := x` are deleted by removeSkips without remarks) plus every id
    // the remarks created.
    std::set<uint32_t> Universe;
    for (BlockId B = 0; B < Input.numBlocks(); ++B)
      for (const Instr &I : Input.block(B).Instrs)
        if (I.isAssign() && !I.Rhs.isVarAtom(I.Lhs))
          Universe.insert(I.Id);
    std::vector<Remark> All = Sink::get().remarks();
    for (const Remark &R : All) {
      for (uint32_t New : R.NewIds)
        Universe.insert(New);
      if (R.Act == Action::Insert || R.K == Kind::SinkInit)
        Universe.insert(R.InstrId);
    }

    std::map<uint32_t, unsigned> TerminalCount;
    for (const Remark &R : All)
      if (R.Terminal)
        ++TerminalCount[R.InstrId];

    std::set<uint32_t> Surviving = idsIn(Out);
    for (uint32_t Id : Universe) {
      unsigned N = TerminalCount.count(Id) ? TerminalCount[Id] : 0;
      if (Surviving.count(Id))
        EXPECT_EQ(N, 0u) << "seed " << Seed << ": surviving id " << Id
                         << " has a terminal remark";
      else
        EXPECT_EQ(N, 1u) << "seed " << Seed << ": deleted id " << Id
                         << " has " << N << " terminal remarks";
    }
  }
}

TEST(RemarksProvenance, DecomposeLinksParentToChildren) {
  CollectionScope On;
  runCollected(figure4());
  std::vector<Remark> All = Sink::get().remarks();
  Provenance Prov = Provenance::build(All);

  // Find a decompose remark and check the DAG edges both ways.
  bool Found = false;
  for (const Remark &R : All) {
    if (R.K != Kind::Decompose || R.NewIds.empty())
      continue;
    Found = true;
    const Provenance::Node *Parent = Prov.node(R.InstrId);
    ASSERT_NE(Parent, nullptr);
    for (uint32_t New : R.NewIds) {
      EXPECT_NE(std::find(Parent->Children.begin(), Parent->Children.end(),
                          New),
                Parent->Children.end());
      const Provenance::Node *Child = Prov.node(New);
      ASSERT_NE(Child, nullptr);
      EXPECT_NE(std::find(Child->Parents.begin(), Child->Parents.end(),
                          R.InstrId),
                Child->Parents.end());
      // The family of the child contains the parent and vice versa.
      std::vector<uint32_t> Family = Prov.family(New);
      EXPECT_TRUE(std::binary_search(Family.begin(), Family.end(), R.InstrId));
    }
  }
  EXPECT_TRUE(Found);
}

TEST(RemarksProvenance, ExplainRendersLineage) {
  CollectionScope On;
  FlowGraph Out = runCollected(figure4());
  std::vector<Remark> All = Sink::get().remarks();
  Provenance Prov = Provenance::build(All);

  // h1's initialization is hoisted and finally sunk: its ids must exist
  // and the rendered chain must cite the justifying predicates.
  std::vector<uint32_t> Ids = Prov.idsForVar("h1", All);
  ASSERT_FALSE(Ids.empty());
  std::string Text = explainId(Ids.front(), All, Prov);
  EXPECT_NE(Text.find("lineage of instr"), std::string::npos);
  EXPECT_NE(Text.find("because:"), std::string::npos);
}

TEST(RemarksVerifier, FiguresReplayClean) {
  for (const auto &[Name, Build] : figureSet()) {
    RemarkVerifyReport Report = verifyUniformRemarks(Build());
    EXPECT_TRUE(Report.ok()) << Name << ": "
                             << (Report.Failures.empty()
                                     ? ""
                                     : Report.Failures.front());
    EXPECT_GT(Report.Checked, 0u) << Name;
    // The instrumented replay must produce the same program as the
    // uninstrumented pipeline.
    EXPECT_EQ(printGraph(Report.Output), printGraph(runUniformEmAm(Build())));
  }
}

TEST(RemarksVerifier, RandomCorpusReplaysClean) {
  unsigned Checked = 0;
  for (uint64_t Seed = 0; Seed < 110; ++Seed) {
    FlowGraph G = generateStructuredProgram(Seed);
    RemarkVerifyReport Report = verifyUniformRemarks(G);
    Checked += Report.Checked;
    EXPECT_TRUE(Report.ok())
        << "seed " << Seed << ": "
        << (Report.Failures.empty() ? "" : Report.Failures.front());
  }
  EXPECT_GT(Checked, 0u);
}

TEST(RemarksVerifier, TemporaryOperandCorpusReplaysClean) {
  unsigned Checked = 0;
  for (size_t Idx = 0; Idx < temporaryOperandCorpus().size(); ++Idx) {
    const FlowGraph &G = temporaryOperandCorpus()[Idx];
    RemarkVerifyReport Report = verifyUniformRemarks(G);
    Checked += Report.Checked;
    EXPECT_TRUE(Report.ok())
        << "seed " << Idx + 1 << ": "
        << (Report.Failures.empty() ? "" : Report.Failures.front());
    EXPECT_EQ(printGraph(Report.Output), printGraph(runUniformEmAm(G)))
        << "seed " << Idx + 1;
  }
  EXPECT_GT(Checked, 0u);
}

// Collection must never change what the optimizer produces: the printed
// output with remarks on is byte-identical to the output with them off.
TEST(RemarksZeroCost, CollectionDoesNotPerturbOutput) {
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    FlowGraph G = generateStructuredProgram(Seed);
    std::string Plain = printGraph(runUniformEmAm(G));
    std::string Collected;
    {
      CollectionScope On;
      Collected = printGraph(runCollected(G));
    }
    EXPECT_EQ(Plain, Collected) << "seed " << Seed;
  }
}
