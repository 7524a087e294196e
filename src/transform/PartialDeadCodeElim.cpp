//===- transform/PartialDeadCodeElim.cpp - PDE implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/PartialDeadCodeElim.h"
#include "analysis/Liveness.h"
#include "analysis/PaperAnalyses.h"
#include "dfa/Dataflow.h"
#include "ir/Patterns.h"

using namespace am;

bool am::runAssignmentSinking(FlowGraph &G) {
  assert(!G.hasCriticalEdges() &&
         "assignment sinking requires split critical edges");
  AssignPatternTable Pats;
  Pats.build(G);
  if (Pats.size() == 0)
    return false;
  // Sinking delayability: an occurrence can be delayed past an
  // instruction unless the instruction blocks it (the blocking relation
  // is the same in both motion directions).
  BlockingProblem Problem(Pats, Direction::Forward);
  DataflowResult Delay = solve(G, Problem);
  LivenessAnalysis Live = LivenessAnalysis::run(G);

  // Phase 1: record decisions against the frozen graph.
  struct BlockDecision {
    SparseRows InsertBefore; // per instruction
    BitVector InsertAtExit;
    std::vector<bool> RemoveInstr;
  };
  std::vector<BlockDecision> Decisions(G.numBlocks());
  BlockWalker DelayWalk(Delay), LiveWalk(Live.result());
  std::vector<std::pair<uint32_t, uint32_t>> Latest; // (instr, pattern)

  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const auto &Instrs = G.block(B).Instrs;
    BlockDecision &D = Decisions[B];
    D.RemoveInstr.assign(Instrs.size(), false);
    // Every occurrence is deleted; the latest points re-materialize the
    // ones that are still needed.  N-LATEST = N-DELAY* · BLOCKED: the
    // delayable facts the instruction kills.
    Latest.clear();
    DelayWalk.walk(B, [&](size_t Idx, const BitVector &NDelay,
                          const LocalEffect &E) {
      if (Pats.occurrenceAt(B, Idx) != AssignPatternTable::npos)
        D.RemoveInstr[Idx] = true;
      E.forEachKilled(NDelay, [&](size_t Pat) {
        Latest.push_back({static_cast<uint32_t>(Idx),
                          static_cast<uint32_t>(Pat)});
      });
    });

    // Guard each latest point by liveness of the left-hand side
    // immediately before the blocking instruction.
    std::vector<bool> Keep(Latest.size(), false);
    if (!Latest.empty()) {
      size_t Next = Latest.size();
      LiveWalk.walk(B, [&](size_t Idx, const BitVector &LiveAfter,
                           const LocalEffect &) {
        const Instr &I = Instrs[Idx];
        for (; Next > 0 && Latest[Next - 1].first == Idx; --Next) {
          VarId Lhs = Pats.pattern(Latest[Next - 1].second).Lhs;
          Keep[Next - 1] = I.usesVar(Lhs) || (LiveAfter.test(index(Lhs)) &&
                                              I.definedVar() != Lhs);
        }
      });
    }
    D.InsertBefore.reset(Instrs.size(), Pats.size());
    for (size_t Ev = 0; Ev < Latest.size(); ++Ev)
      if (Keep[Ev])
        D.InsertBefore.add(Latest[Ev].first, Latest[Ev].second);
    D.InsertBefore.finish();

    // X-LATEST = X-DELAY* · ∃succ ¬N-DELAY*, guarded by liveness at exit.
    D.InsertAtExit = Delay.exit(B);
    const auto &Succs = G.block(B).Succs;
    for (size_t W = 0, E = D.InsertAtExit.numWords(); W != E; ++W) {
      uint64_t AnySuccStops = 0;
      for (BlockId S : Succs)
        AnySuccStops |= ~Delay.entry(S).word(W);
      D.InsertAtExit.setWord(W, D.InsertAtExit.word(W) & AnySuccStops);
    }
    D.InsertAtExit.forEachSetBit([&](size_t Pat) {
      if (!Live.liveOut(B).test(index(Pats.pattern(Pat).Lhs)))
        D.InsertAtExit.reset(Pat);
    });
  }

  // Phase 2: rebuild.  Exit insertions at multi-successor blocks cannot
  // occur (each successor has a unique predecessor after edge splitting,
  // so delayability never stops at such an exit).
  bool Changed = false;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    BasicBlock &BB = G.block(B);
    const BlockDecision &D = Decisions[B];
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB.Instrs.size());
    auto Emit = [&](size_t Pat) {
      NewInstrs.push_back(
          Instr::assign(Pats.pattern(Pat).Lhs, Pats.pattern(Pat).Rhs));
    };
    for (size_t Idx = 0; Idx < BB.Instrs.size(); ++Idx) {
      D.InsertBefore[Idx].forEachSetBit(Emit);
      if (!D.RemoveInstr[Idx])
        NewInstrs.push_back(BB.Instrs[Idx]);
    }
    assert((D.InsertAtExit.none() || !BB.branchInstr()) &&
           "exit insertion at a branching block");
    for (size_t Pat : D.InsertAtExit.setBits())
      Emit(Pat);
    if (NewInstrs != BB.Instrs) {
      BB.Instrs = std::move(NewInstrs);
      G.touchBlock(B);
      Changed = true;
    }
  }
  return Changed;
}

PdeStats am::runPartialDeadCodeElim(FlowGraph &G, unsigned MaxRounds) {
  PdeStats Stats;
  int Before = static_cast<int>(G.numInstrs());
  unsigned Cap = MaxRounds ? MaxRounds
                           : static_cast<unsigned>(G.numInstrs() +
                                                   G.numBlocks() + 16);
  while (Stats.Rounds < Cap) {
    ++Stats.Rounds;
    if (!runAssignmentSinking(G))
      break;
  }
  Stats.Removed = Before - static_cast<int>(G.numInstrs());
  return Stats;
}
