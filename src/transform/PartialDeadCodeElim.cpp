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

bool SinkingContext::round(FlowGraph &G) {
  assert(!G.hasCriticalEdges() &&
         "assignment sinking requires split critical edges");
  size_t NumBlocks = G.numBlocks();
  bool All = false;
  {
    AM_SPAN(Span, "pde.solve");
    // Only the first round grows the universe: sinking re-materializes
    // existing patterns.  A grown universe re-decides everything.
    uint64_t Gen = Table.patternGeneration();
    Table.refreshPatterns(G);
    All = Table.patternGeneration() != Gen;
    if (patterns().size() == 0)
      return false;
    // Release the previous round's results before their solvers move on,
    // so nothing is copied out.
    Delay = DataflowResult();
    Live = LivenessAnalysis();
    Delay = DelaySolver.solve(G, DelayProblem, Table.patternGeneration());
    Live = LivenessAnalysis::run(G, LiveSolver);
  }

  const AssignPatternTable &Pats = patterns();
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
    // Only patterns that still occur are patterns of this program: a dead
    // slot of the stable numbering is delayable nowhere a path reaches.
    auto Occurs = [&](size_t Pat) {
      return Pats.rank(Pat) != AssignPatternTable::NoRank;
    };
    // A latest point is kept where its left-hand side is live: read by
    // the blocking instruction itself, or live after it and not redefined
    // by it; at the exit, live-out.
    auto Guard = [&](const Instr *I, size_t Pat, const auto &LiveAfter) {
      VarId Lhs = Pats.pattern(Pat).Lhs;
      bool IsLive = LiveAfter.test(index(Lhs));
      bool Keep =
          I ? I->usesVar(Lhs) || (IsLive && I->definedVar() != Lhs) : IsLive;
      return Keep ? LatestKind::Place : LatestKind::Drop;
    };
    // Sorts a decision into the current rank order, the order a fresh
    // numbering gives; returns true if the order moved.
    auto SortByRank = [&](BlockDecision &D) {
      auto Less = [&](const auto &A, const auto &Z) {
        return A.first != Z.first ? A.first < Z.first
                                  : Pats.rank(A.second) < Pats.rank(Z.second);
      };
      if (std::is_sorted(D.begin(), D.end(), Less))
        return false;
      std::sort(D.begin(), D.end(), Less);
      return true;
    };
    size_t Redecided = 0;
    LatestPlacement Walk(Delay, Live.result());
    for (BlockId B = 0; B < NumBlocks; ++B) {
      BlockDecision &D = Decisions[B];
      bool Again = Rebuild[B];
      for (BlockId S : G.block(B).Succs)
        Again |= InChanged[S];
      // A kept decision naming a pattern that no longer occurs is
      // re-derived; any other is re-sorted into the current rank order
      // and rebuilt only if that order moved.
      if (!Again && std::all_of(D.begin(), D.end(), [&](const auto &P) {
            return Occurs(P.second);
          })) {
        Rebuild[B] = SortByRank(D);
        continue;
      }
      D.clear();
      Walk.decide(G, B, Occurs, Guard,
                  [&](const LatestPoint &P) { D.push_back({P.Idx, P.Bit}); });
      SortByRank(D);
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
    Touched[B] =
        Rebuild[B] &&
        Rebuilder.rebuild(
            G, B, Decisions[B],
            [&](size_t K, size_t) {
              const AssignPat &P = Pats.pattern(Decisions[B][K].second);
              return Instr::assign(P.Lhs, P.Rhs);
            },
            [&](size_t Idx) {
              return Pats.occurrenceAt(B, Idx) != AssignPatternTable::npos;
            });
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
