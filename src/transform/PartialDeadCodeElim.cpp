//===- transform/PartialDeadCodeElim.cpp - PDE implementation --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/PartialDeadCodeElim.h"
#include "support/Stats.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstring>

using namespace am;

namespace {

/// Compares \p Row with block \p B's copy in \p Prev (\p Words words a
/// block) and stores it; returns true if it differed.
bool changed(const WordRow &Row, std::vector<uint64_t> &Prev, BlockId B,
             size_t Words) {
  bool Diff = false;
  uint64_t *P = Prev.data() + B * Words;
  for (size_t W = 0; W < Words; W += WordRow::ChunkWords) {
    size_t Bytes = std::min(WordRow::ChunkWords, Words - W) * sizeof(uint64_t);
    if (std::memcmp(P + W, Row.chunk(W), Bytes) != 0) {
      std::memcpy(P + W, Row.chunk(W), Bytes);
      Diff = true;
    }
  }
  return Diff;
}

} // namespace

void SinkingContext::decide(const FlowGraph &G, BlockId B,
                            BlockWalker &DelayWalk, BlockWalker &LiveWalk) {
  BlockDecision &D = Decisions[B];
  D.Before.clear();
  D.AtExit.clear();
  // N-LATEST = N-DELAY* · BLOCKED: the delayable facts the instruction
  // kills.
  Latest.clear();
  DelayWalk.walk(B, [&](size_t Idx, const BitVector &NDelay,
                        const LocalEffect &E) {
    E.forEachKilled(NDelay, [&](size_t Pat) {
      if (occurs(Pat))
        Latest.push_back({static_cast<uint32_t>(Idx),
                          static_cast<uint32_t>(Pat)});
    });
  });

  // Guard each latest point by liveness of the left-hand side
  // immediately before the blocking instruction.
  if (!Latest.empty()) {
    const auto &Instrs = G.block(B).Instrs;
    Keep.assign(Latest.size(), false);
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
    for (size_t Ev = 0; Ev < Latest.size(); ++Ev)
      if (Keep[Ev])
        D.Before.push_back(Latest[Ev]);
  }

  // X-LATEST = X-DELAY* · ∃succ ¬N-DELAY*, guarded by liveness at exit.
  const auto &Succs = G.block(B).Succs;
  if (Succs.empty())
    return;
  WordRow XDelay = Delay.exitRow(B);
  WordRow LiveOut = Live.result().exitRow(B);
  SuccIn.clear();
  for (BlockId S : Succs)
    SuccIn.push_back(Delay.entryRow(S));
  for (size_t W = 0, E = (Pats.size() + 63) / 64; W != E; ++W) {
    uint64_t AnySuccStops = 0;
    for (const WordRow &In : SuccIn)
      AnySuccStops |= ~In.word(W);
    for (uint64_t Hit = XDelay.word(W) & AnySuccStops; Hit; Hit &= Hit - 1) {
      size_t Pat = W * 64 + static_cast<size_t>(__builtin_ctzll(Hit));
      if (occurs(Pat) && LiveOut.test(index(Pats.pattern(Pat).Lhs)))
        D.AtExit.push_back(static_cast<uint32_t>(Pat));
    }
  }
}

bool SinkingContext::stillOccurs(const BlockDecision &D) const {
  return std::all_of(D.Before.begin(), D.Before.end(),
                     [&](const auto &P) { return occurs(P.second); }) &&
         std::all_of(D.AtExit.begin(), D.AtExit.end(),
                     [&](uint32_t Pat) { return occurs(Pat); });
}

bool SinkingContext::sortByRank(BlockDecision &D) const {
  auto Rank = [&](uint32_t Pat) { return Pats.rank(Pat); };
  auto BeforeLess = [&](const auto &A, const auto &Z) {
    return A.first != Z.first ? A.first < Z.first
                              : Rank(A.second) < Rank(Z.second);
  };
  auto ExitLess = [&](uint32_t A, uint32_t Z) { return Rank(A) < Rank(Z); };
  bool Moved = false;
  if (!std::is_sorted(D.Before.begin(), D.Before.end(), BeforeLess)) {
    std::sort(D.Before.begin(), D.Before.end(), BeforeLess);
    Moved = true;
  }
  if (!std::is_sorted(D.AtExit.begin(), D.AtExit.end(), ExitLess)) {
    std::sort(D.AtExit.begin(), D.AtExit.end(), ExitLess);
    Moved = true;
  }
  return Moved;
}

bool SinkingContext::rebuild(FlowGraph &G, BlockId B) {
  BasicBlock &BB = G.block(B);
  const BlockDecision &D = Decisions[B];
  NewInstrs.clear();
  auto Emit = [&](size_t Pat) {
    NewInstrs.push_back(
        Instr::assign(Pats.pattern(Pat).Lhs, Pats.pattern(Pat).Rhs));
  };
  auto Ins = D.Before.begin();
  for (size_t Idx = 0; Idx < BB.Instrs.size(); ++Idx) {
    for (; Ins != D.Before.end() && Ins->first == Idx; ++Ins)
      Emit(Ins->second);
    if (Pats.occurrenceAt(B, Idx) == AssignPatternTable::npos)
      NewInstrs.push_back(BB.Instrs[Idx]);
  }
  // Exit insertions at multi-successor blocks cannot occur (each
  // successor has a unique predecessor after edge splitting, so
  // delayability never stops at such an exit).
  assert((D.AtExit.empty() || !BB.branchInstr()) &&
         "exit insertion at a branching block");
  for (uint32_t Pat : D.AtExit)
    Emit(Pat);
  if (NewInstrs == BB.Instrs)
    return false;
  // The old list becomes the next rebuild's scratch.
  BB.Instrs.swap(NewInstrs);
  G.touchBlock(B);
  return true;
}

bool SinkingContext::round(FlowGraph &G) {
  assert(!G.hasCriticalEdges() &&
         "assignment sinking requires split critical edges");
  size_t NumBlocks = G.numBlocks();
  bool All = false;
  {
    AM_SPAN(Span, "pde.solve");
    if (Pats.build(G)) {
      // Only the first round grows the universe: sinking re-materializes
      // existing patterns.  A grown universe re-decides everything.
      ++PatsGen;
      All = true;
    }
    if (Pats.size() == 0)
      return false;
    // Release the previous round's results before their solvers move on,
    // so nothing is copied out.
    Delay = DataflowResult();
    Live = LivenessAnalysis();
    Delay = DelaySolver.solve(G, DelayProblem, PatsGen);
    Live = LivenessAnalysis::run(G, LiveSolver);
  }

  size_t PatWords = (Pats.size() + 63) / 64;
  size_t VarWords = (G.Vars.size() + 63) / 64;
  All |= Decisions.size() != NumBlocks ||
         PrevLiveOut.size() != NumBlocks * VarWords;
  if (All) {
    Decisions.resize(NumBlocks);
    Touched.assign(NumBlocks, true);
    PrevDelayIn.assign(NumBlocks * PatWords, 0);
    PrevLiveOut.assign(NumBlocks * VarWords, 0);
  }
  {
    AM_SPAN(Span, "pde.decide");
    // The change test: compare each block's facts with the copy its
    // decision was made against, and keep the new ones.  The delayability
    // exit needs no copy: an unchanged block's exit changes only with its
    // entry.  Until the decisions are made, Rebuild marks the blocks
    // whose own inputs changed.
    InChanged.assign(NumBlocks, false);
    Rebuild.assign(NumBlocks, false);
    for (BlockId B = 0; B < NumBlocks; ++B) {
      InChanged[B] = changed(Delay.entryRow(B), PrevDelayIn, B, PatWords);
      bool LiveChanged =
          changed(Live.result().exitRow(B), PrevLiveOut, B, VarWords);
      Rebuild[B] = Touched[B] || InChanged[B] || LiveChanged;
    }
    size_t Redecided = 0;
    BlockWalker DelayWalk(Delay), LiveWalk(Live.result());
    for (BlockId B = 0; B < NumBlocks; ++B) {
      bool Again = Rebuild[B];
      for (BlockId S : G.block(B).Succs)
        Again |= InChanged[S];
      // A kept decision naming a pattern that no longer occurs is
      // re-derived; any other is re-sorted into the current rank order
      // and rebuilt only if that order moved.
      if (!Again && stillOccurs(Decisions[B])) {
        Rebuild[B] = sortByRank(Decisions[B]);
        continue;
      }
      decide(G, B, DelayWalk, LiveWalk);
      sortByRank(Decisions[B]);
      Rebuild[B] = true;
      ++Redecided;
    }
    AM_STAT_COUNTER(NumRedecided, "pde.blocks_redecided");
    AM_STAT_ADD(NumRedecided, Redecided);
    Span.arg("redecided", Redecided);
  }

  AM_SPAN(Span, "pde.rebuild");
  bool Changed = false;
  for (BlockId B = 0; B < NumBlocks; ++B) {
    Touched[B] = Rebuild[B] && rebuild(G, B);
    Changed |= Touched[B];
  }
  return Changed;
}

PdeStats am::runPartialDeadCodeElim(FlowGraph &G, unsigned MaxRounds) {
  PdeStats Stats;
  int Before = static_cast<int>(G.numInstrs());
  unsigned Cap = MaxRounds ? MaxRounds
                           : static_cast<unsigned>(G.numInstrs() +
                                                   G.numBlocks() + 16);
  SinkingContext Ctx;
  while (Stats.Rounds < Cap) {
    ++Stats.Rounds;
    if (!Ctx.round(G))
      break;
  }
  Stats.Removed = Before - static_cast<int>(G.numInstrs());
  return Stats;
}
