//===- dfa/SolverCache.cpp - Transfer cache implementation -----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "dfa/SolverCache.h"
#include "dfa/Dataflow.h"
#include "support/Stats.h"

using namespace am;

void TransferCache::compose(const FlowGraph &G, const DataflowProblem &P,
                            BlockId B) {
  BlockTransfer &T = Transfers[B];
  composeBlock(P, G, B, Effect, T.Gen, T.Kill);
}

bool TransferCache::refresh(const FlowGraph &G, const DataflowProblem &P,
                            uint64_t ProblemGen) {
  AM_STAT_COUNTER(NumRecomposed, "dfa.transfers_recomputed");
  size_t Bits = P.numBits();
  bool Forward = P.direction() == Direction::Forward;
  size_t NumBlocks = G.numBlocks();

  // Blocks are only ever appended in place (splitting), never removed, so
  // a shrunken block array means a different graph generation.
  bool Incremental = Valid && CachedG == &G && CachedGen == ProblemGen &&
                     CachedBits == Bits && CachedForward == Forward &&
                     Transfers.size() <= NumBlocks;

  uint64_t Recomposed = 0;
  Transfers.resize(NumBlocks);
  if (!Incremental) {
    for (BlockId B = 0; B < NumBlocks; ++B)
      compose(G, P, B);
    Recomposed = NumBlocks;
  } else {
    for (BlockId B = 0; B < NumBlocks; ++B) {
      if (G.blockTick(B) > RefreshTick) {
        compose(G, P, B);
        ++Recomposed;
      }
    }
  }
  AM_STAT_ADD(NumRecomposed, Recomposed);

  CachedG = &G;
  CachedGen = ProblemGen;
  CachedBits = Bits;
  CachedForward = Forward;
  RefreshTick = G.modTick();
  Valid = true;
  return Incremental;
}
