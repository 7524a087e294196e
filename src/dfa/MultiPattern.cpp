//===- dfa/MultiPattern.cpp - Transposed multi-pattern solver --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "dfa/MultiPattern.h"
#include "dfa/Dataflow.h"
#include "support/Profiler.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <memory>
#include <type_traits>

using namespace am;

//===----------------------------------------------------------------------===//
// MultiPatternTransfers
//===----------------------------------------------------------------------===//

bool MultiPatternTransfers::refresh(const FlowGraph &G,
                                    const DataflowProblem &P,
                                    uint64_t ProblemGen,
                                    PackedLaneMatrix &Lanes,
                                    const std::vector<BlockId> &Order,
                                    const std::vector<size_t> &OrderIndex) {
  AM_STAT_COUNTER(NumRecomposed, "dfa.transfers_recomputed");
  size_t Bits = P.numBits();
  bool Forward = P.direction() == Direction::Forward;
  size_t NumBlocks = G.numBlocks();

  // A packed matrix cannot grow rows in place (the slice stride changes),
  // so any block-count change rebuilds everything; so does any structural
  // change, because both the iteration order and the position-space edge
  // lists derive from the structure.  Block splitting and edge rewiring
  // happen before the fixpoint rounds; steady-state refreshes see a
  // stable structure and stay incremental.  (A reshape of Lanes, whose
  // lanes it leaves unwritten, invalidates this cache first.)
  bool Incremental = Valid && CachedG == &G && CachedGen == ProblemGen &&
                     CachedBits == Bits && CachedForward == Forward &&
                     CachedStruct == G.structTick();

  uint64_t Recomposed = 0;
  if (!Incremental) {
    Recomposed = NumBlocks;
    if (Lanes.groups() > 1) {
      // One pass over the blocks in iteration order, split into
      // contiguous *position* ranges across the pool (position I is
      // block Order[I]).  Rows are disjoint per position and the
      // problem's effects are const reads, so the split is free of shared
      // mutable state; scratch lives per range.  Composed transfers are
      // staged 64 rows at a time and flushed per tile so the packed
      // scatter writes each group region in contiguous bursts instead of
      // one strided cache line per row (see setTransferTile).
      threads::pool().parallelRanges(
          NumBlocks, [&](size_t Begin, size_t End) {
            constexpr size_t TileRows = 64;
            LocalEffect E;
            BitVector GenT[TileRows], KillT[TileRows];
            for (size_t TBase = Begin; TBase < End; TBase += TileRows) {
              size_t TEnd = TBase + TileRows < End ? TBase + TileRows : End;
              for (size_t I = TBase; I < TEnd; ++I)
                composeBlock(P, G, Order[I], E, GenT[I - TBase],
                             KillT[I - TBase]);
              Lanes.setTransferTile(TBase, TEnd - TBase, GenT, KillT);
            }
          });
    } else {
      // One group: rows go straight into its one lane region, so there is
      // no scatter to tile, and a problem this narrow composes faster
      // than a hand-off to the pool; the member scratch is reused.
      for (size_t I = 0; I < NumBlocks; ++I) {
        composeBlock(P, G, Order[I], Effect, GenAcc, KillAcc);
        Lanes.setTransferTile(I, 1, &GenAcc, &KillAcc);
      }
    }
    // Retarget the CSR edge lists into position space.
    size_t NumEdges = 0;
    for (BlockId B = 0; B < NumBlocks; ++B)
      NumEdges += G.block(B).Succs.size();
    MeetOff.assign(NumBlocks + 1, 0);
    DepOff.assign(NumBlocks + 1, 0);
    MeetPos.clear();
    DepPos.clear();
    MeetPos.reserve(NumEdges);
    DepPos.reserve(NumEdges);
    for (size_t I = 0; I < NumBlocks; ++I) {
      BlockId B = Order[I];
      for (BlockId N : Forward ? G.block(B).Preds : G.block(B).Succs)
        MeetPos.push_back(uint32_t(OrderIndex[N]));
      for (BlockId N : Forward ? G.block(B).Succs : G.block(B).Preds)
        DepPos.push_back(uint32_t(OrderIndex[N]));
      MeetOff[I + 1] = uint32_t(MeetPos.size());
      DepOff[I + 1] = uint32_t(DepPos.size());
    }
  } else {
    for (BlockId B = 0; B < NumBlocks; ++B) {
      if (G.blockTick(B) > RefreshTick) {
        composeBlock(P, G, B, Effect, GenAcc, KillAcc);
        Lanes.setTransferTile(OrderIndex[B], 1, &GenAcc, &KillAcc);
        ++Recomposed;
      }
    }
  }
  AM_STAT_ADD(NumRecomposed, Recomposed);

  CachedG = &G;
  CachedStruct = G.structTick();
  CachedGen = ProblemGen;
  CachedBits = Bits;
  CachedForward = Forward;
  RefreshTick = G.modTick();
  Valid = true;
  return Incremental;
}

//===----------------------------------------------------------------------===//
// TransposedEngine
//===----------------------------------------------------------------------===//

template <size_t GW, bool MeetAll>
uint64_t TransposedEngine::drainGroupImpl(size_t Gr, const SolveRequest &R,
                                          size_t NumPos, size_t BoundaryPos) {
  const uint32_t *MeetOff = Transfers.meetOff();
  const uint32_t *MeetPos = Transfers.meetPos();
  const uint32_t *DepOff = Transfers.depOff();
  const uint32_t *DepPos = Transfers.depPos();
  uint64_t *Lane = LaneM.groupLanes(Gr);
  uint64_t *Out = OutM.groupRow(Gr);
  uint64_t *InP = InM.groupRow(Gr);
  uint8_t *LiveP = Live + Gr * NumPos;
  const size_t NumSlices = LaneM.slices();
  uint64_t InitW[GW], BoundaryW[GW];
  for (size_t W = 0; W < GW; ++W) {
    size_t S = Gr * GW + W;
    InitW[W] = MeetAll ? LaneM.sliceMask(S) : 0;
    BoundaryW[W] = S < NumSlices ? R.Boundary->word(S) : 0;
  }
  WorklistRing &WL = GroupWork[Gr];
  uint64_t Processed = 0;

  // Recomputes position I; returns true if its transferred side changed
  // in any word of the group.  Rows are keyed by iteration position, so
  // in the sweep below every array this touches — the gen/kill pair,
  // the in and out planes, the edge offsets and targets — advances
  // strictly sequentially; only the meet gathers jump, and those stay
  // inside this group's dense out plane (rows() * GW words), which is
  // what keeps them cache hits even when the gen/kill stream is far too
  // large to be resident.  Dead tail words of a partial final group
  // carry the identity transfer over an all-zero meet, so they never
  // report a change.  The position's live flags are written here too,
  // so they describe whatever the runs last became.
  auto Eval = [&](size_t I) {
    const uint64_t *L = Lane + I * 2 * GW;
    uint64_t NewIn[GW];
    if (I == BoundaryPos) {
      for (size_t W = 0; W < GW; ++W)
        NewIn[W] = BoundaryW[W];
    } else {
      uint32_t EI = MeetOff[I], EE = MeetOff[I + 1];
      if (EI == EE) {
        for (size_t W = 0; W < GW; ++W)
          NewIn[W] = InitW[W];
      } else {
        const uint64_t *N = Out + size_t(MeetPos[EI]) * GW;
        for (size_t W = 0; W < GW; ++W)
          NewIn[W] = N[W];
        while (++EI != EE) {
          N = Out + size_t(MeetPos[EI]) * GW;
          for (size_t W = 0; W < GW; ++W) {
            if (MeetAll)
              NewIn[W] &= N[W];
            else
              NewIn[W] |= N[W];
          }
        }
      }
    }
    uint64_t *InRow = InP + I * GW;
    uint64_t *OutRow = Out + I * GW;
    uint64_t Changed = 0, AnyIn = 0, AnyOut = 0;
    for (size_t W = 0; W < GW; ++W) {
      uint64_t NewOut = L[W] | (NewIn[W] & ~L[GW + W]);
      InRow[W] = NewIn[W];
      Changed |= NewOut ^ OutRow[W];
      OutRow[W] = NewOut;
      AnyIn |= NewIn[W];
      AnyOut |= NewOut;
    }
    LiveP[I] = (AnyIn ? InLive : 0) | (AnyOut ? OutLive : 0);
    return Changed != 0;
  };

  // First cycle as a straight sweep over every position, or over the
  // dirty closure's positions on an incremental restart.  With all of
  // them pending, a ring drain pops in iteration order anyway, so this
  // visits the same positions in the same order — but without a bit-scan
  // pop per block, and pushing only dependents at or before the cursor:
  // later ones are reached by the sweep itself and see the new value (the
  // closure is closed under dependents, so that holds for the restart
  // too).  The per-group payoff: a group whose patterns converge in the
  // sweep never pushes at all, so its ring drain below is empty.
  auto Sweep = [&](size_t I) {
    ++Processed;
    if (Eval(I)) {
      for (uint32_t D = DepOff[I], DE = DepOff[I + 1]; D != DE; ++D) {
        size_t DepIdx = DepPos[D];
        if (DepIdx <= I)
          WL.push(DepIdx);
      }
    }
  };
  if (R.Incremental)
    for (uint32_t I : ClosurePos)
      Sweep(I);
  else
    for (size_t I = 0; I < NumPos; ++I)
      Sweep(I);

  while (true) {
    size_t I = WL.pop();
    if (I == WorklistRing::npos)
      break;
    ++Processed;
    if (Eval(I)) {
      for (uint32_t D = DepOff[I], DE = DepOff[I + 1]; D != DE; ++D)
        WL.push(DepPos[D]);
    }
  }
  return Processed;
}

uint64_t TransposedEngine::drainGroup(size_t Gr, const SolveRequest &R,
                                      size_t NumPos, size_t BoundaryPos) {
  // The group width and the meet operator select the instantiation; the
  // direction is already folded into the position-space edge lists.
  auto Run = [&](auto Width) {
    constexpr size_t GW = decltype(Width)::value;
    return R.MeetAll ? drainGroupImpl<GW, true>(Gr, R, NumPos, BoundaryPos)
                     : drainGroupImpl<GW, false>(Gr, R, NumPos, BoundaryPos);
  };
  static_assert(MaxGroupWidth == 16, "one case per group width");
  switch (LaneM.groupWidth()) {
  case 1:
    return Run(std::integral_constant<size_t, 1>());
  case 2:
    return Run(std::integral_constant<size_t, 2>());
  case 4:
    return Run(std::integral_constant<size_t, 4>());
  case 8:
    return Run(std::integral_constant<size_t, 8>());
  default:
    return Run(std::integral_constant<size_t, 16>());
  }
}

uint64_t TransposedEngine::solve(const SolveRequest &R) {
  const FlowGraph &G = *R.G;
  const DataflowProblem &P = *R.P;
  size_t Bits = P.numBits();
  size_t NumPos = R.Order->size();
  assert(NumPos == G.numBlocks() && "the iteration order covers every block");
  size_t BoundaryPos = (*R.OrderIndex)[R.BoundaryBlock];

  // Reshape before refreshing the transfers, which a reshape invalidates:
  // its planes are unwritten until the full compose and the full solve
  // below write them (see PackedLaneMatrix::reshape).
  if (LaneM.rows() != NumPos || LaneM.bits() != Bits) {
    AM_SPAN(Span, "dfa.reshape");
    assert(!R.Incremental && "an incremental solve over fresh planes");
    bool Reused = LaneM.reshape(NumPos, Bits);
    Reused &= OutM.reshape(NumPos, Bits);
    Reused &= InM.reshape(NumPos, Bits);
    Reused &= reallocate(LiveMem, Live, NumPos * LaneM.groups());
    Transfers.invalidate();
    Span.arg("reused", Reused ? 1 : 0);
  }
  {
    AM_SPAN(Span, "dfa.compose");
    Transfers.refresh(G, P, R.ProblemGen, LaneM, *R.Order, *R.OrderIndex);
  }
  AM_SPAN(Span, "dfa.fixpoint");
  ClosurePos.clear();
  if (R.Incremental) {
    for (BlockId B : *R.Dirty)
      ClosurePos.push_back(static_cast<uint32_t>((*R.OrderIndex)[B]));
    std::sort(ClosurePos.begin(), ClosurePos.end());
  }

  const size_t GW = LaneM.groupWidth();
  size_t NumGroups = LaneM.groups();
  if (GroupWork.size() < NumGroups)
    GroupWork.resize(NumGroups);

  std::vector<uint64_t> Processed(NumGroups, 0);

  // Worker-side profiling goes to private per-group trees (the session
  // profiler's scope stack is not thread-safe) merged below in group
  // order — the deterministic fold support/Profiler.h documents.
  prof::Profiler &SessionProf = prof::Profiler::get();
  bool Prof = SessionProf.enabled();
  std::vector<std::unique_ptr<prof::Profiler>> GroupProfs;
  if (Prof) {
    GroupProfs.resize(NumGroups);
    for (auto &Ptr : GroupProfs) {
      Ptr = std::make_unique<prof::Profiler>();
      Ptr->setEnabled(true);
    }
  }

  auto RunGroup = [&](size_t Gr) {
    prof::OverrideScope Ov(Prof ? GroupProfs[Gr].get() : nullptr);
    AM_SPAN(SliceSpan, "dfa.solve.slice");
    uint64_t *Out = OutM.groupRow(Gr);
    uint64_t InitW[MaxGroupWidth];
    for (size_t W = 0; W < GW; ++W)
      InitW[W] = R.MeetAll ? LaneM.sliceMask(Gr * GW + W) : 0;
    WorklistRing &WL = GroupWork[Gr];
    WL.reset(NumPos);
    // No seeding pushes: drainGroupImpl runs the first cycle as a straight
    // sweep and only the back-edge requeues enter the ring.  The sweep
    // writes the in-plane row of every position it visits, so only the
    // out plane — which meets read across back edges before the sweep
    // reaches them — needs the optimistic value.
    auto Reset = [&](size_t Pos) {
      for (size_t W = 0; W < GW; ++W)
        Out[Pos * GW + W] = InitW[W];
    };
    if (R.Incremental)
      for (uint32_t Pos : ClosurePos)
        Reset(Pos);
    else
      for (size_t Pos = 0; Pos < NumPos; ++Pos)
        Reset(Pos);
    Processed[Gr] = drainGroup(Gr, R, NumPos, BoundaryPos);
  };

  // A one-group solve never touches the pool, which starts its workers on
  // first use: a run whose problems all fit one group starts none.
  if (NumGroups > 1 && threads::pool().workers() > 1)
    threads::pool().parallelFor(NumGroups, RunGroup);
  else
    for (size_t Gr = 0; Gr < NumGroups; ++Gr)
      RunGroup(Gr);

  if (Prof)
    for (size_t Gr = 0; Gr < NumGroups; ++Gr)
      SessionProf.merge(*GroupProfs[Gr]);

  SolBits = Bits;
  SolOrderIndex = R.OrderIndex;

  uint64_t Total = 0;
  for (uint64_t C : Processed)
    Total += C;
  return Total;
}

WordRow TransposedEngine::row(BlockId B, bool MeetSide) const {
  size_t GW = LaneM.groupWidth();
  size_t Pos = (*SolOrderIndex)[B];
  const PackedGroupPlane &Plane = MeetSide ? InM : OutM;
  return WordRow(Plane.groupRow(0) + Pos * GW, SolBits, Plane.groupStride(),
                 Live + Pos, LaneM.rows(), MeetSide ? InLive : OutLive);
}

void TransposedEngine::transferRows(BlockId B, WordRow &Gen,
                                    WordRow &Kill) const {
  size_t GW = LaneM.groupWidth();
  const uint64_t *Lane = LaneM.groupLanes(0) + (*SolOrderIndex)[B] * 2 * GW;
  Gen = WordRow(Lane, SolBits, LaneM.groupStride());
  Kill = WordRow(Lane + GW, SolBits, LaneM.groupStride());
}
