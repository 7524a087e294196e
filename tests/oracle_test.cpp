//===- tests/oracle_test.cpp - Dense reference oracle -----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential oracle for the sparse local-effect substrate.  The dense
/// algorithms the library used to run — full-width gen/kill vectors per
/// instruction derived straight from the pattern definitions (those of
/// the assignment patterns and of liveness are shared with pde_test in
/// tests/TestUtil.h), the round-robin block solve over them (denseSolve), an
/// instruction-by-instruction replay, and the N-LATEST / N-INIT /
/// RECONSTRUCT / X-INIT formulas over materialized vectors — live here as
/// the reference.  Every production
/// problem (Tables 1-3, LCM, liveness, copy analysis, PDE sinking) must
/// agree with it at every block boundary and every instruction boundary,
/// and the sparse flush plan must equal the dense one, over the 120-seed
/// corpus, irreducible CFGs, the bundled examples and the shapes_test
/// generators.  rae's per-occurrence N-REDUNDANT scan is checked against
/// the dense replay at every occurrence.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/CopyAnalysis.h"
#include "analysis/LcmAnalyses.h"
#include "analysis/Liveness.h"
#include "analysis/PaperAnalyses.h"
#include "ir/Patterns.h"
#include "support/Stats.h"
#include "transform/AssignmentMotion.h"
#include "transform/Initialization.h"
#include "transform/Normalize.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

namespace {

//===----------------------------------------------------------------------===//
// The dense reference
//===----------------------------------------------------------------------===//

/// The old instrFacts replay: Before/After vectors of every instruction.
DataflowResult::InstrFacts denseFacts(const FlowGraph &G,
                                      const DenseProblem &P,
                                      const DenseSolution &S, BlockId B) {
  const auto &Instrs = G.block(B).Instrs;
  size_t N = Instrs.size();
  DataflowResult::InstrFacts F;
  F.Before.resize(N);
  F.After.resize(N);
  BitVector Gen, Kill;
  bool Forward = P.Dir == Direction::Forward;
  BitVector Cur = Forward ? S.Entry[B] : S.Exit[B];
  for (size_t Step = 0; Step < N; ++Step) {
    size_t Idx = Forward ? Step : N - 1 - Step;
    (Forward ? F.Before : F.After)[Idx] = Cur;
    P.Gen(Instrs[Idx], Gen);
    P.Kill(Instrs[Idx], Kill);
    Cur.andNot(Kill);
    Cur |= Gen;
    (Forward ? F.After : F.Before)[Idx] = Cur;
  }
  return F;
}

DenseProblem denseRedundancy(const AssignPatternTable &Pats) {
  return {Direction::Forward, Meet::All, Pats.size(),
          [&Pats](const Instr &I, BitVector &O) {
            denseOccurrenceBit(Pats, I, O, /*EligibleOnly=*/true);
          },
          [&Pats](const Instr &I, BitVector &O) { denseKilled(Pats, I, O); }};
}

void denseIsInst(const FlushUniverse &U, const Instr &I, BitVector &Out) {
  Out = U.makeVector();
  for (size_t T = 0; T < U.size(); ++T)
    if (I.isAssign() && I.Lhs == U.temp(T) && I.Rhs == U.expr(T))
      Out.set(T);
}

void denseUsed(const FlushUniverse &U, const Instr &I, BitVector &Out) {
  Out = U.makeVector();
  for (size_t T = 0; T < U.size(); ++T)
    if (I.usesVar(U.temp(T)))
      Out.set(T);
}

void denseTempBlocked(const FlushUniverse &U, const Instr &I,
                      BitVector &Out) {
  Out = U.makeVector();
  VarId Def = I.definedVar();
  for (size_t T = 0; isValid(Def) && T < U.size(); ++T)
    if (U.temp(T) == Def || U.expr(T).usesVar(Def))
      Out.set(T);
}

DenseProblem denseDelayability(const FlushUniverse &U) {
  return {Direction::Forward, Meet::All, U.size(),
          [&U](const Instr &I, BitVector &O) { denseIsInst(U, I, O); },
          [&U](const Instr &I, BitVector &O) {
            BitVector Blocked;
            denseUsed(U, I, O);
            denseTempBlocked(U, I, Blocked);
            O |= Blocked;
          }};
}

DenseProblem denseUsability(const FlushUniverse &U) {
  return {Direction::Backward, Meet::Any, U.size(),
          [&U](const Instr &I, BitVector &O) { denseUsed(U, I, O); },
          [&U](const Instr &I, BitVector &O) { denseIsInst(U, I, O); }};
}

void denseComputed(const ExprPatternTable &E, const Instr &I,
                   BitVector &Out) {
  Out = E.makeVector();
  auto Note = [&](const Term &T) {
    for (size_t X = 0; T.isNonTrivial() && X < E.size(); ++X)
      if (E.term(X) == T)
        Out.set(X);
  };
  if (I.isAssign()) {
    Note(I.Rhs);
  } else if (I.isBranch()) {
    Note(I.CondL);
    Note(I.CondR);
  }
}

void denseExprKilled(const ExprPatternTable &E, const Instr &I,
                     BitVector &Out) {
  Out = E.makeVector();
  VarId Def = I.definedVar();
  for (size_t X = 0; isValid(Def) && X < E.size(); ++X)
    if (E.term(X).usesVar(Def))
      Out.set(X);
}

DenseProblem denseAnticipability(const ExprPatternTable &E) {
  return {Direction::Backward, Meet::All, E.size(),
          [&E](const Instr &I, BitVector &O) { denseComputed(E, I, O); },
          [&E](const Instr &I, BitVector &O) { denseExprKilled(E, I, O); }};
}

DenseProblem denseAvailability(const ExprPatternTable &E) {
  return {Direction::Forward, Meet::All, E.size(),
          [&E](const Instr &I, BitVector &O) {
            BitVector Killed;
            denseComputed(E, I, O);
            denseExprKilled(E, I, Killed);
            O.andNot(Killed);
          },
          [&E](const Instr &I, BitVector &O) { denseExprKilled(E, I, O); }};
}

DenseProblem denseCopies(const CopyUniverse &U) {
  return {Direction::Forward, Meet::All, U.size(),
          [&U](const Instr &I, BitVector &O) {
            O = U.makeVector();
            bool Copy =
                I.isAssign() && !I.Rhs.isNonTrivial() && I.Rhs.A.isVar();
            for (size_t C = 0; Copy && C < U.size(); ++C)
              if (U.dst(C) == I.Lhs && U.src(C) == I.Rhs.A.Var)
                O.set(C);
          },
          [&U](const Instr &I, BitVector &O) {
            O = U.makeVector();
            VarId Def = I.definedVar();
            for (size_t C = 0; isValid(Def) && C < U.size(); ++C)
              if (U.dst(C) == Def || U.src(C) == Def)
                O.set(C);
          }};
}

//===----------------------------------------------------------------------===//
// Comparisons
//===----------------------------------------------------------------------===//

/// Block-level and instruction-level agreement of a production result
/// with the dense reference.
void expectSameSolution(const FlowGraph &G, const DenseProblem &P,
                        const DataflowResult &R, const std::string &Ctx) {
  DenseSolution S = denseSolve(G, P);
  expectMatchesDense(G, R, S, Ctx);
  if (::testing::Test::HasFatalFailure())
    return;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    DataflowResult::InstrFacts Want = denseFacts(G, P, S, B);
    DataflowResult::InstrFacts Got = R.instrFacts(B);
    ASSERT_EQ(Got.Before, Want.Before) << Ctx << ": before, b" << B;
    ASSERT_EQ(Got.After, Want.After) << Ctx << ": after, b" << B;
  }
}

/// The old dense plan formulas over materialized instruction facts.
void expectSamePlan(const FlowGraph &G, const FlushAnalysis &F,
                    const std::string &Ctx) {
  const FlushUniverse &U = F.universe();
  DenseProblem DP = denseDelayability(U), UP = denseUsability(U);
  DenseSolution DS = denseSolve(G, DP), US = denseSolve(G, UP);
  BitVector Used, Blocked;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const auto &Instrs = G.block(B).Instrs;
    DataflowResult::InstrFacts D = denseFacts(G, DP, DS, B);
    DataflowResult::InstrFacts Us = denseFacts(G, UP, US, B);
    FlushAnalysis::BlockPlan Plan = F.plan(B);
    ASSERT_EQ(Plan.InitBefore.size(), Instrs.size()) << Ctx;
    ASSERT_EQ(Plan.Reconstruct.size(), Instrs.size()) << Ctx;
    for (size_t I = 0; I < Instrs.size(); ++I) {
      denseUsed(U, Instrs[I], Used);
      denseTempBlocked(U, Instrs[I], Blocked);
      // N-LATEST = N-DELAYABLE* · (USED + BLOCKED); N-INIT = N-LATEST ·
      // X-USABLE; RECONSTRUCT = USED · N-LATEST · ¬X-USABLE.
      BitVector NLatest = D.Before[I] & (Used | Blocked);
      ASSERT_EQ(BitVector(Plan.InitBefore[I]), NLatest & Us.After[I])
          << Ctx << ": N-INIT b" << B << "#" << I;
      ASSERT_EQ(BitVector(Plan.Reconstruct[I]),
                Used & NLatest & ~Us.After[I])
          << Ctx << ": RECONSTRUCT b" << B << "#" << I;
    }
    // X-INIT = X-DELAYABLE* · ∃succ ¬N-DELAYABLE* · X-USABLE.
    BitVector AnySuccStops(U.size());
    for (BlockId S : G.block(B).Succs)
      AnySuccStops |= ~DS.Entry[S];
    ASSERT_EQ(Plan.InitAtExit, DS.Exit[B] & AnySuccStops & US.Exit[B])
        << Ctx << ": X-INIT b" << B;
  }
}

/// rae's per-occurrence N-REDUNDANT bit (an in-block scan, no fact
/// vector) must equal the dense replay's bit at every occurrence.
void expectSameRaeBits(const FlowGraph &G, const AssignPatternTable &Pats,
                       const RedundancyAnalysis &R, const std::string &Ctx) {
  DenseProblem P = denseRedundancy(Pats);
  DenseSolution S = denseSolve(G, P);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    DataflowResult::InstrFacts Want = denseFacts(G, P, S, B);
    size_t Seen = 0;
    R.forEachOccurrence(B, [&](size_t Idx, size_t Pat, bool NRedundant) {
      ++Seen;
      ASSERT_EQ(Pat, denseOccurrence(Pats, G.block(B).Instrs[Idx])) << Ctx;
      ASSERT_EQ(NRedundant, Want.Before[Idx].test(Pat))
          << Ctx << ": N-REDUNDANT b" << B << "#" << Idx;
    });
    size_t Occurrences = 0;
    for (const Instr &I : G.block(B).Instrs)
      Occurrences += denseOccurrence(Pats, I) != AssignPatternTable::npos;
    ASSERT_EQ(Seen, Occurrences) << Ctx << ": b" << B;
  }
}

void expectSameHoistPredicates(const FlowGraph &G,
                               const AssignPatternTable &Pats,
                               const std::string &Ctx) {
  HoistabilityAnalysis H = HoistabilityAnalysis::run(G, Pats);
  DenseSolution S = denseSolve(G, denseBlocking(Pats, Direction::Backward));
  BitVector Blocked;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    // LOC-HOISTABLE: occurrences not preceded by a blocker; LOC-BLOCKED:
    // patterns some instruction of the block blocks.
    BitVector LocHoistable(Pats.size()), LocBlocked(Pats.size());
    for (const Instr &I : G.block(B).Instrs) {
      size_t P = denseOccurrence(Pats, I);
      if (P != AssignPatternTable::npos && !LocBlocked.test(P))
        LocHoistable.set(P);
      denseBlocked(Pats, I, Blocked);
      LocBlocked |= Blocked;
    }
    ASSERT_EQ(H.locHoistable(B), LocHoistable) << Ctx << ": b" << B;
    ASSERT_EQ(H.locBlocked(B), LocBlocked) << Ctx << ": b" << B;
    // N-INSERT = N-HOISTABLE* · ∃pred ¬X-HOISTABLE* (at s: N-HOISTABLE*);
    // X-INSERT = X-HOISTABLE* · LOC-BLOCKED.
    BitVector EntryIns = S.Entry[B];
    if (B != G.start()) {
      BitVector AnyPredStops(Pats.size());
      for (BlockId P : G.block(B).Preds)
        AnyPredStops |= ~S.Exit[P];
      EntryIns &= AnyPredStops;
    }
    ASSERT_EQ(H.entryInsert(B), EntryIns) << Ctx << ": N-INSERT b" << B;
    ASSERT_EQ(H.exitInsert(B), S.Exit[B] & LocBlocked)
        << Ctx << ": X-INSERT b" << B;
  }
}

void expectSameLcm(const FlowGraph &G, const std::string &Ctx) {
  ExprPatternTable Exprs;
  Exprs.build(G);
  if (Exprs.size() == 0)
    return;
  LcmAnalysis L = LcmAnalysis::run(G, Exprs);
  DenseSolution Ant = denseSolve(G, denseAnticipability(Exprs));
  DenseSolution Av = denseSolve(G, denseAvailability(Exprs));
  BitVector Comp, Killed;
  std::vector<BitVector> AntlocOf(G.numBlocks()), NotTranspOf(G.numBlocks());
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    ASSERT_EQ(L.antIn(B), Ant.Entry[B]) << Ctx << ": ANTIN b" << B;
    ASSERT_EQ(L.antOut(B), Ant.Exit[B]) << Ctx << ": ANTOUT b" << B;
    ASSERT_EQ(L.avIn(B), Av.Entry[B]) << Ctx << ": AVIN b" << B;
    ASSERT_EQ(L.avOut(B), Av.Exit[B]) << Ctx << ": AVOUT b" << B;
    BitVector Antloc(Exprs.size()), KilledSoFar(Exprs.size());
    for (const Instr &I : G.block(B).Instrs) {
      denseComputed(Exprs, I, Comp);
      Comp.andNot(KilledSoFar);
      Antloc |= Comp;
      denseExprKilled(Exprs, I, Killed);
      KilledSoFar |= Killed;
    }
    ASSERT_EQ(L.antloc(B), Antloc) << Ctx << ": ANTLOC b" << B;
    ASSERT_EQ(L.transp(B), ~KilledSoFar) << Ctx << ": TRANSP b" << B;
    AntlocOf[B] = Antloc;
    NotTranspOf[B] = KilledSoFar;
  }

  // EARLIEST(m,n) = ANTIN(n) · ¬AVOUT(m) · (¬TRANSP(m) + ¬ANTOUT(m)).
  auto EarliestOf = [&](BlockId M, size_t SuccIdx) {
    BitVector E = Ant.Entry[G.block(M).Succs[SuccIdx]];
    E.andNot(Av.Exit[M]);
    BitVector Third = NotTranspOf[M];
    Third |= ~Ant.Exit[M];
    E &= Third;
    return E;
  };
  DenseLater D = denseLater(G, Exprs.size(), Ant.Entry[G.start()], AntlocOf,
                            EarliestOf);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    ASSERT_EQ(L.laterIn(B), D.LaterIn[B]) << Ctx << ": LATERIN b" << B;
    BitVector Del = AntlocOf[B];
    Del.andNot(D.LaterIn[B]);
    ASSERT_EQ(L.deleteIn(B), Del) << Ctx << ": DELETE b" << B;
    const auto &Succs = G.block(B).Succs;
    for (size_t SuccIdx = 0; SuccIdx < Succs.size(); ++SuccIdx) {
      ASSERT_EQ(L.earliest(B, SuccIdx), EarliestOf(B, SuccIdx))
          << Ctx << ": EARLIEST b" << B << "->b" << Succs[SuccIdx];
      BitVector Ins = D.Later[B][SuccIdx];
      Ins.andNot(D.LaterIn[Succs[SuccIdx]]);
      ASSERT_EQ(L.insertOnEdge(B, SuccIdx), Ins)
          << Ctx << ": INSERT b" << B << "->b" << Succs[SuccIdx];
    }
  }
}

/// Checks every problem on one program snapshot (critical edges split).
void checkSnapshot(const FlowGraph &G, const std::string &Ctx) {
  AssignPatternTable Pats;
  Pats.build(G);
  if (Pats.size() != 0) {
    RedundancyAnalysis R = RedundancyAnalysis::run(G, Pats);
    expectSameSolution(G, denseRedundancy(Pats), R.result(),
                       Ctx + " redundancy");
    expectSameRaeBits(G, Pats, R, Ctx + " rae");
    expectSameHoistPredicates(G, Pats, Ctx + " hoistability");
    BlockingProblem Hoist(Pats, Direction::Backward);
    expectSameSolution(G, denseBlocking(Pats, Direction::Backward),
                       solve(G, Hoist),
                       Ctx + " hoistability facts");
    BlockingProblem Sink(Pats, Direction::Forward);
    expectSameSolution(G, denseBlocking(Pats, Direction::Forward),
                       solve(G, Sink), Ctx + " pde sinking");
  }
  FlushAnalysis F = FlushAnalysis::run(G);
  if (F.universe().size() != 0) {
    expectSameSolution(G, denseDelayability(F.universe()), F.delayability(),
                       Ctx + " delayability");
    expectSameSolution(G, denseUsability(F.universe()), F.usability(),
                       Ctx + " usability");
    expectSamePlan(G, F, Ctx + " plan");
  }
  LivenessAnalysis Live = LivenessAnalysis::run(G);
  expectSameSolution(G, denseLiveness(G.Vars.size()), Live.result(),
                     Ctx + " liveness");
  CopyAnalysis Copies = CopyAnalysis::run(G);
  if (Copies.universe().size() != 0) {
    DenseProblem P = denseCopies(Copies.universe());
    DenseSolution S = denseSolve(G, P);
    for (BlockId B = 0; B < G.numBlocks(); ++B) {
      DataflowResult::InstrFacts Want = denseFacts(G, P, S, B);
      DataflowResult::InstrFacts Got = Copies.facts(B);
      ASSERT_EQ(Got.Before, Want.Before) << Ctx << " copies b" << B;
      ASSERT_EQ(Got.After, Want.After) << Ctx << " copies b" << B;
    }
  }
  expectSameLcm(G, Ctx + " lcm");
}

/// Checks the snapshots the optimizer actually analyzes: the split input,
/// its initialized form, and the AM fixpoint's result (which is what the
/// final flush sees).
void checkProgram(const FlowGraph &Input, const std::string &Ctx) {
  FlowGraph G = Input;
  removeSkips(G);
  G.splitCriticalEdges();
  ASSERT_FALSE(G.hasCriticalEdges()) << Ctx;
  checkSnapshot(G, Ctx + " split");
  runInitializationPhase(G);
  checkSnapshot(G, Ctx + " initialized");
  runAssignmentMotionPhase(G);
  checkSnapshot(G, Ctx + " after AM");
}

} // namespace

TEST(DenseOracle, StructuredCorpus) {
  for (uint64_t Seed = 0; Seed < 120 && !HasFatalFailure(); ++Seed)
    checkProgram(generateStructuredProgram(Seed),
                 "structured seed " + std::to_string(Seed));
}

TEST(DenseOracle, IrreducibleCfgs) {
  for (uint64_t Seed = 0; Seed < 30 && !HasFatalFailure(); ++Seed)
    checkProgram(generateIrreducibleCfg(Seed),
                 "irreducible seed " + std::to_string(Seed));
}

TEST(DenseOracle, BundledExamples) {
  unsigned Seen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(AM_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".am" || HasFatalFailure())
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Src;
    Src << In.rdbuf();
    checkProgram(parse(Src.str()), Entry.path().filename().string());
    ++Seen;
  }
  EXPECT_GE(Seen, 5u);
}

TEST(DenseOracle, GeneratorShapes) {
  for (const ProgramShape &S : programShapes())
    for (uint64_t Seed = 0; Seed < 10 && !HasFatalFailure(); ++Seed)
      checkProgram(generateStructuredProgram(Seed, S.Opts),
                   std::string(S.Name) + " seed " + std::to_string(Seed));
}

/// One solver handed from problem to problem, its arenas first filled by
/// a wide problem, must solve each of them as a fresh solver would: the
/// planes it reuses hold the previous problem's words (or the arena's
/// poison in builds with assertions), so a word read before it is
/// written shows up here.  Each width solves full, then incrementally
/// after a stamped edit; a different problem of the same width and
/// generation, handed the same solver, must restart full.
TEST(DenseOracle, HandedOverSolverMatchesOnEveryWidth) {
  FlowGraph G = generateStructuredProgram(5);
  auto Incremental = [] {
    return stats::Registry::get().counterValue("dfa.solves.incremental");
  };
  DataflowSolver Solver;
  WidthProbe Wide(3000, Direction::Backward, Meet::Any);
  expectMatchesDense(G, Solver.solve(G, Wide, 1), denseSolve(G, Wide),
                     "wide");
  BlockId Target = G.numBlocks() / 2;
  // 1, 2, 4, 8 and 16 slices, and two groups with a partial final one.
  for (size_t Bits : {64u, 128u, 256u, 512u, 1024u, 1500u}) {
    for (Direction Dir : {Direction::Forward, Direction::Backward}) {
      for (Meet M : {Meet::All, Meet::Any}) {
        std::string Ctx = std::to_string(Bits) + " bits" +
                          (Dir == Direction::Forward ? ", fwd" : ", bwd") +
                          (M == Meet::All ? ", all" : ", any");
        WidthProbe P(Bits, Dir, M);
        Solver.handOver();
        uint64_t Inc0 = Incremental();
        expectMatchesDense(G, Solver.solve(G, P, 1), denseSolve(G, P),
                           Ctx + ", full");
        EXPECT_EQ(Incremental(), Inc0) << Ctx;

        G.block(Target).Instrs.insert(G.block(Target).Instrs.begin(),
                                      Instr::skip());
        G.touchBlock(Target);
        expectMatchesDense(G, Solver.solve(G, P, 1), denseSolve(G, P),
                           Ctx + ", incremental");
        EXPECT_EQ(Incremental(), Inc0 + 1) << Ctx;

        WidthProbe Other(Bits, Dir, M, /*Salt=*/1);
        Solver.handOver();
        expectMatchesDense(G, Solver.solve(G, Other, 1), denseSolve(G, Other),
                           Ctx + ", other problem");
        EXPECT_EQ(Incremental(), Inc0 + 1)
            << Ctx << ": a handed-over solver restarted incrementally";
        if (HasFatalFailure())
          return;
      }
    }
  }
}
