//===- dfa/Dataflow.cpp - Dataflow solver implementation --------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The solver object carries four layers of reuse across solves:
//
//  1. composed block transfers, recomputed only for tick-dirty blocks
//     (MultiPatternTransfers);
//  2. the previous converged solution: if the graph did not change at all,
//     it is returned outright; if it changed locally, iteration restarts
//     only over the dirty blocks' dependence closure;
//  3. all fixpoint scratch (the packed planes, the worklist rings), so
//     the steady-state inner loop performs no heap allocation;
//  4. the solution itself: a result reads the solver's storage and is
//     copied out only if a caller still holds it when the solver moves on.
//
// Why the incremental restart is exact (not merely safe): let D be the
// dirty blocks and A their closure under the dependence direction (succs
// for forward problems, preds for backward).  Blocks outside A take no
// input from A, their transfers are unchanged, so the old solution still
// satisfies their equations — and because fixpoint iteration of that
// closed subsystem never reads A's values, its greatest (least) solution
// is unchanged too.  Inside A we restart from the optimistic
// initialization against those converged boundary values; the worklist
// invariant ("an unsatisfied equation is pending") plus monotonicity
// pins the converged result to the global greatest (least) fixpoint, the
// same one a from-scratch solve computes.
//
//===----------------------------------------------------------------------===//

#include "dfa/Dataflow.h"
#include "support/Stats.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cassert>

using namespace am;

namespace {
/// Monotone id per solve() call, for remark provenance (see
/// DataflowResult::SolveSerial).
std::atomic<uint64_t> GlobalSolveSerial{0};

/// Per-thread solve observer (see setSolveObserver).  Thread-local so
/// concurrent optimization jobs — one telemetry session per worker
/// thread — observe only their own solves; the check in the hot path
/// stays one load + branch.
thread_local void (*ObserverFn)(const SolveInfo &, void *) = nullptr;
thread_local void *ObserverCtx = nullptr;

void notifyObserver(const SolveInfo &Info) {
  if (ObserverFn)
    ObserverFn(Info, ObserverCtx);
}
} // namespace

void am::setSolveObserver(void (*Fn)(const SolveInfo &, void *), void *Ctx) {
  ObserverFn = Fn;
  ObserverCtx = Ctx;
}

DataflowSolver::DataflowSolver() = default;
DataflowSolver::~DataflowSolver() { detach(); }

void DataflowSolver::handOver() {
  detach();
  HaveSolution = false;
  Engine.handOver();
}

bool DataflowSolver::solutionValid(const FlowGraph &G,
                                   const DataflowProblem &P,
                                   uint64_t ProblemGen) const {
  return HaveSolution && SolG == &G && SolStructTick == G.structTick() &&
         SolGen == ProblemGen && SolBits == P.numBits() &&
         SolForward == (P.direction() == Direction::Forward) &&
         SolMeetAll == (P.meet() == Meet::All);
}

void DataflowSolver::refreshOrder(const FlowGraph &G, bool Forward) {
  if (OrderG == &G && OrderStructTick == G.structTick() &&
      OrderForward == Forward)
    return;
  AM_SPAN(Span, "dfa.order");
  Order = Forward ? G.reversePostorder() : G.reverseGraphReversePostorder();
  OrderIndex.assign(G.numBlocks(), 0);
  for (size_t Idx = 0; Idx < Order.size(); ++Idx)
    OrderIndex[Order[Idx]] = Idx;
  OrderG = &G;
  OrderStructTick = G.structTick();
  OrderForward = Forward;
}

DataflowResult DataflowSolver::snapshot(const FlowGraph &G,
                                        const DataflowProblem &P) {
  DataflowResult R;
  R.G = &G;
  R.Problem = &P;
  R.Sol = std::make_shared<DataflowResult::Solution>();
  R.Sol->Live = this;
  LiveSol = R.Sol;
  return R;
}

WordRow DataflowSolver::factRow(BlockId B, bool Entry) const {
  // "In" is the meet side: the entry of a forward problem, the exit of a
  // backward one.
  return Engine.row(B, /*MeetSide=*/Entry == SolForward);
}

void DataflowSolver::transferRows(BlockId B, WordRow &Gen,
                                  WordRow &Kill) const {
  Engine.transferRows(B, Gen, Kill);
}

void DataflowSolver::materialize(DataflowResult::Solution &S) const {
  AM_SPAN(Span, "dfa.materialize");
  S.Entry.resize(SolBlocks);
  S.Exit.resize(SolBlocks);
  // Tiled: a row at a time would stride the whole of a packed plane once
  // per row.  64-block tiles keep each slice group's runs of the tile
  // resident while the tile's rows take them.
  constexpr size_t Tile = 64;
  size_t Words = (SolBits + 63) / 64;
  for (BlockId Base = 0; Base < SolBlocks; Base += Tile) {
    BlockId End = std::min<size_t>(Base + Tile, SolBlocks);
    for (BlockId B = Base; B < End; ++B) {
      S.Entry[B].clearAndResize(SolBits);
      S.Exit[B].clearAndResize(SolBits);
    }
    for (size_t W = 0; W < Words; W += WordRow::ChunkWords)
      for (BlockId B = Base; B < End; ++B) {
        factRow(B, /*Entry=*/true).copyChunkTo(W, S.Entry[B]);
        factRow(B, /*Entry=*/false).copyChunkTo(W, S.Exit[B]);
      }
  }
}

void DataflowSolver::detach() {
  std::shared_ptr<DataflowResult::Solution> S = LiveSol.lock();
  LiveSol.reset();
  if (!S)
    return;
  materialize(*S);
  S->Live = nullptr;
}

WordRow DataflowResult::entryRow(BlockId B) const {
  return Sol->Live ? Sol->Live->factRow(B, /*Entry=*/true)
                   : WordRow(Sol->Entry[B]);
}

WordRow DataflowResult::exitRow(BlockId B) const {
  return Sol->Live ? Sol->Live->factRow(B, /*Entry=*/false)
                   : WordRow(Sol->Exit[B]);
}

const DataflowResult::Solution &DataflowResult::materialized() const {
  if (Sol->Live) {
    Sol->Live->materialize(*Sol);
    Sol->Live = nullptr;
  }
  return *Sol;
}

DataflowResult DataflowSolver::solve(const FlowGraph &G,
                                     const DataflowProblem &P,
                                     uint64_t ProblemGen) {
  size_t Bits = P.numBits();
  size_t NumBlocks = G.numBlocks();
  bool Forward = P.direction() == Direction::Forward;
  bool MeetAll = P.meet() == Meet::All;

  AM_STAT_COUNTER(NumSolves, "dfa.solves");
  AM_STAT_COUNTER(NumSolvesCached, "dfa.solves.cached");
  AM_STAT_COUNTER(NumSolvesIncremental, "dfa.solves.incremental");
  AM_STAT_INC(NumSolves);
  uint64_t Serial =
      GlobalSolveSerial.fetch_add(1, std::memory_order_relaxed) + 1;
  AM_SPAN(Span, "dfa.solve");
  // A result still held from the previous solve gets its own copy before
  // anything below can overwrite the storage it reads.
  detach();

  Span.arg("bits", Bits);
  Span.arg("blocks", NumBlocks);
  Span.arg("direction", Forward ? "forward" : "backward");
  Span.arg("meet", MeetAll ? "all" : "any");

  bool PrevValid = solutionValid(G, P, ProblemGen);
  SolveInfo Info;
  Info.Serial = Serial;
  Info.Bits = Bits;
  Info.Blocks = NumBlocks;
  Info.Forward = Forward;
  Info.MeetAll = MeetAll;

  // Nothing changed since this solver's last converged solve of the same
  // problem: the cached solution is the answer.
  if (PrevValid && !G.instrsChangedSince(SolTick)) {
    AM_STAT_INC(NumSolvesCached);
    Span.arg("cached", 1);
    DataflowResult R = snapshot(G, P);
    R.SolveSerial = Serial;
    Info.P = SolveInfo::Path::Cached;
    notifyObserver(Info);
    return R;
  }

  refreshOrder(G, Forward);

  P.boundary(Boundary);
  assert(Boundary.size() == Bits && "boundary width mismatch");

  // A valid previous solution restarts from the engine's packed copy.
  // (A changed width or structure fails PrevValid, so the engine's
  // planes were not reshaped since.)
  bool Incremental = PrevValid;
  if (Incremental) {
    // The dirty blocks' closure under the dependence direction.
    DirtyScratch.clear();
    AffectedSet.clearAndResize(NumBlocks);
    for (BlockId B = 0; B < NumBlocks; ++B) {
      if (G.blockTick(B) > SolTick) {
        AffectedSet.set(B);
        DirtyScratch.push_back(B);
      }
    }
    for (size_t Idx = 0; Idx < DirtyScratch.size(); ++Idx) {
      BlockId B = DirtyScratch[Idx];
      const auto &Deps = Forward ? G.block(B).Succs : G.block(B).Preds;
      for (BlockId D : Deps) {
        if (!AffectedSet.test(D)) {
          AffectedSet.set(D);
          DirtyScratch.push_back(D);
        }
      }
    }
    AM_STAT_INC(NumSolvesIncremental);
    Span.arg("incremental", 1);
    Span.arg("dirty_closure", DirtyScratch.size());
  }

  TransposedEngine::SolveRequest Req;
  Req.G = &G;
  Req.P = &P;
  Req.ProblemGen = ProblemGen;
  Req.Order = &Order;
  Req.OrderIndex = &OrderIndex;
  Req.MeetAll = MeetAll;
  Req.BoundaryBlock = Forward ? G.start() : G.end();
  Req.Boundary = &Boundary;
  Req.Incremental = Incremental;
  Req.Dirty = &DirtyScratch;
  uint64_t BlocksProcessed = Engine.solve(Req);

  SolG = &G;
  SolBlocks = NumBlocks;
  SolTick = G.modTick();
  SolStructTick = G.structTick();
  SolGen = ProblemGen;
  SolBits = Bits;
  SolForward = Forward;
  SolMeetAll = MeetAll;
  HaveSolution = true;

  // Every group evaluation touches one group-width run of the meet
  // result, the transferred side and both transfer masks.
  uint64_t WordsTouched = BlocksProcessed * 4 * Engine.groupWidth();
  AM_STAT_COUNTER(NumBlocksProcessed, "dfa.blocks_processed");
  AM_STAT_COUNTER(NumWordsTouched, "dfa.words_touched");
  AM_STAT_ADD(NumBlocksProcessed, BlocksProcessed);
  AM_STAT_ADD(NumWordsTouched, WordsTouched);

  Span.arg("slices", (Bits + 63) / 64);
  Span.arg("group_width", Engine.groupWidth());
  Span.arg("blocks_processed", BlocksProcessed);
  Span.arg("words_touched", WordsTouched);

  DataflowResult R = snapshot(G, P);
  R.BlocksProcessed = BlocksProcessed;
  R.SolveSerial = Serial;

  Info.BlocksProcessed = BlocksProcessed;
  Info.DirtyClosure = Incremental ? DirtyScratch.size() : 0;
  Info.P = Incremental ? SolveInfo::Path::Incremental : SolveInfo::Path::Full;
  notifyObserver(Info);
  return R;
}

DataflowResult am::solve(const FlowGraph &G, const DataflowProblem &P) {
  // The result is materialized when the solver dies at return.
  DataflowSolver Solver;
  return Solver.solve(G, P);
}

void LocalEffect::apply(BitVector &V, BitVector *KillAcc) const {
  // One pass over the words for all masks together: an instruction
  // typically borrows one to four of them.
  if (!KillMasks.empty()) {
    uint64_t *VW = V.data();
    uint64_t *KW = KillAcc ? KillAcc->data() : nullptr;
    const uint64_t *M0 = KillMasks[0]->data();
    size_t NumMasks = KillMasks.size();
    for (size_t W = 0, E = V.numWords(); W != E; ++W) {
      uint64_t K = M0[W];
      for (size_t M = 1; M < NumMasks; ++M)
        K |= KillMasks[M]->data()[W];
      VW[W] &= ~K;
      if (KW)
        KW[W] |= K;
    }
  }
  for (uint32_t B : KillBits) {
    V.reset(B);
    if (KillAcc)
      KillAcc->set(B);
  }
  for (uint32_t B : Gen)
    V.set(B);
}

void am::composeBlock(const DataflowProblem &P, const FlowGraph &G, BlockId B,
                      LocalEffect &E, BitVector &Gen, BitVector &Kill) {
  size_t Bits = P.numBits();
  Gen.clearAndResize(Bits);
  Kill.clearAndResize(Bits);
  const auto &Instrs = G.block(B).Instrs;
  size_t N = Instrs.size();
  bool Forward = P.direction() == Direction::Forward;
  // Applying a later effect g to the composed f gives
  // gen' = g.gen | (gen & ~g.kill), kill' = kill | g.kill — which is
  // exactly g applied to gen, with its kill set folded into kill.
  for (size_t Step = 0; Step < N; ++Step) {
    size_t Idx = Forward ? Step : N - 1 - Step;
    E.clear();
    P.effect(B, Idx, Instrs[Idx], E);
    E.apply(Gen, &Kill);
  }
}

DataflowResult::InstrFacts DataflowResult::instrFacts(BlockId B) const {
  assert(G && Problem && "result not produced by solve()");
  size_t N = G->block(B).Instrs.size();
  bool Forward = Problem->direction() == Direction::Forward;
  InstrFacts F;
  F.Before.resize(N);
  F.After.resize(N);
  std::vector<BitVector> &InSide = Forward ? F.Before : F.After;
  std::vector<BitVector> &OutSide = Forward ? F.After : F.Before;
  BlockWalker W(*this);
  W.walk(B, [&](size_t Idx, const BitVector &In, const LocalEffect &E) {
    InSide[Idx] = OutSide[Idx] = In;
    E.apply(OutSide[Idx]);
  });
  return F;
}
