//===- analysis/PaperAnalyses.h - Tables 1-3 of the paper ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three dataflow analyses of Knoop/Rüthing/Steffen, "The Power of
/// Assignment Motion" (PLDI'95):
///
///  * Table 2 — redundant assignment analysis (forward, all-path):
///      N-REDUNDANT = false at s's first instruction, else ∧ preds
///      X-REDUNDANT = EXECUTED + ASS-TRANSP · N-REDUNDANT
///  * Table 1 — hoistability analysis (backward, all-path) plus the
///    N-INSERT / X-INSERT insertion predicates;
///  * Table 3 — final-flush analyses over temporary initializations:
///    delayability (forward, all-path, greatest), usability (backward,
///    any-path, least), and the N-INIT / X-INIT / RECONSTRUCT placement
///    predicates, decided by the latest-placement walker PDE shares.
///
/// Each analysis keeps block-level solutions only; facts() and plan() are
/// thin adaptors over BlockWalker scans of a block.  The AM rounds query
/// words of the solver's own solution and transfers instead: rae asks
/// one N-REDUNDANT bit per occurrence (forEachOccurrence), aht computes
/// the insert predicates word by word, and neither copies a solution.
///
/// All results are computed against a frozen snapshot of the graph: callers
/// must not mutate the graph while reading facts, and the referenced
/// pattern tables must outlive the analysis object.
///
//===----------------------------------------------------------------------===//

#ifndef AM_ANALYSIS_PAPERANALYSES_H
#define AM_ANALYSIS_PAPERANALYSES_H

#include "dfa/Dataflow.h"
#include "ir/Patterns.h"
#include "support/SparseRows.h"

#include <algorithm>
#include <memory>
#include <type_traits>
#include <utility>

namespace am {

//===----------------------------------------------------------------------===//
// Table 2: redundancy
//===----------------------------------------------------------------------===//

/// Redundant-assignment facts.  A bit (for pattern a at a point p) means:
/// every path from s to p contains an occurrence of a with no modification
/// of a's left-hand side or operands in between — i.e. an occurrence of a
/// at p would be redundant (Definition 3.4).
class RedundancyAnalysis {
public:
  /// Runs the analysis.  \p Pats must outlive the returned object.
  static RedundancyAnalysis run(const FlowGraph &G,
                                const AssignPatternTable &Pats);

  /// As above, against a caller-owned reusable solver.  \p PatsGen
  /// identifies the pattern table's contents (see DataflowSolver): pass
  /// the generation the table reported so the solver's caches survive
  /// rounds whose rebuild left the universe unchanged.
  static RedundancyAnalysis run(const FlowGraph &G,
                                const AssignPatternTable &Pats,
                                DataflowSolver &Solver, uint64_t PatsGen);

  /// N-/X-REDUNDANT at every instruction boundary of \p B.
  DataflowResult::InstrFacts facts(BlockId B) const {
    return Result.instrFacts(B);
  }

  /// Calls \p F(Idx, Pat, NRedundant) for every occurrence of a pattern
  /// in \p B, in instruction order, with the N-REDUNDANT bit of its own
  /// pattern immediately before it.  The bit is decided by the nearest
  /// earlier event in the block that touches the pattern: an eligible
  /// occurrence of it generates, any other definition of its left-hand
  /// side or an operand kills; with neither, the block-entry bit holds.
  /// One forward pass tracks the last definition per variable and the
  /// last occurrence per pattern, so no fact vector is built.
  template <typename Fn> void forEachOccurrence(BlockId B, Fn F) const;

  /// The block-level solution, for BlockWalker scans.
  const DataflowResult &result() const { return Result; }

  const BitVector &entry(BlockId B) const { return Result.entry(B); }
  const BitVector &exit(BlockId B) const { return Result.exit(B); }

  /// Serial of the dataflow solve these facts came from (for remarks).
  uint64_t solveSerial() const { return Result.SolveSerial; }

private:
  const FlowGraph *G = nullptr;
  const AssignPatternTable *Pats = nullptr;
  std::unique_ptr<DataflowSolver> OwnedSolver; // one-shot run() only
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
  // forEachOccurrence scratch: (stamp, instruction index) of the last
  // definition per variable and the last occurrence per pattern.
  mutable std::vector<std::pair<uint32_t, uint32_t>> LastDef, LastOcc;
  mutable uint32_t Stamp = 0;
};

template <typename Fn>
void RedundancyAnalysis::forEachOccurrence(BlockId B, Fn F) const {
  const auto &Instrs = G->block(B).Instrs;
  LastDef.resize(G->Vars.size());
  LastOcc.resize(Pats->size());
  ++Stamp;
  for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
    size_t Pat = Pats->occurrenceAt(B, Idx);
    if (Pat != AssignPatternTable::npos) {
      // The latest in-block definition of a variable the pattern mentions.
      int64_t Kill = -1;
      auto Note = [&](VarId V) {
        const auto &D = LastDef[index(V)];
        if (D.first == Stamp && int64_t(D.second) > Kill)
          Kill = D.second;
      };
      const AssignPat &P = Pats->pattern(Pat);
      Note(P.Lhs);
      P.Rhs.forEachVar(Note);
      bool NRedundant;
      if (Kill < 0)
        NRedundant = Result.entryRow(B).test(Pat);
      else
        // Redundant only if that definition is itself an eligible
        // occurrence of the pattern (its gen wins over its own kill).
        NRedundant = LastOcc[Pat].first == Stamp &&
                     int64_t(LastOcc[Pat].second) == Kill &&
                     Pats->redundancyEligible().test(Pat);
      F(Idx, Pat, NRedundant);
      LastOcc[Pat] = {Stamp, static_cast<uint32_t>(Idx)};
    }
    VarId Def = Instrs[Idx].definedVar();
    if (isValid(Def))
      LastDef[index(Def)] = {Stamp, static_cast<uint32_t>(Idx)};
  }
}

//===----------------------------------------------------------------------===//
// Table 1: hoistability
//===----------------------------------------------------------------------===//

/// Occurrences generate, blockers (Definition 3.2) kill.  Backward this is
/// Table 1's N-HOISTABLE = LOC-HOISTABLE + X-HOISTABLE · ¬LOC-BLOCKED at
/// instruction granularity (composing a block reproduces the candidate
/// rule); forward it is PDE's sinking delayability.
class BlockingProblem : public DataflowProblem {
public:
  BlockingProblem(const AssignPatternTable &Pats, Direction Dir)
      : Pats(Pats), Dir(Dir) {}

  Direction direction() const override { return Dir; }
  Meet meet() const override { return Meet::All; }
  size_t numBits() const override { return Pats.size(); }
  void effect(BlockId B, size_t Idx, const Instr &I,
              LocalEffect &E) const override;

private:
  const AssignPatternTable &Pats;
  Direction Dir;
};

/// The hoistability analysis' block-local predicates LOC-HOISTABLE and
/// LOC-BLOCKED: the gen and kill sides of the block's composed backward
/// transfer, read straight from the solver that solved the hoistability
/// problem (which recomposes only the blocks the graph stamped dirty).
/// Valid until that solver solves again.
class HoistLocalPredicates {
public:
  /// Binds to \p Solver's last solve, of the hoistability problem.
  void refresh(const DataflowSolver &S) { Solver = &S; }

  WordRow locBlocked(BlockId B) const { return side(B, /*GenSide=*/false); }
  WordRow locHoistable(BlockId B) const { return side(B, /*GenSide=*/true); }

private:
  WordRow side(BlockId B, bool GenSide) const {
    WordRow Gen, Kill;
    Solver->transferRows(B, Gen, Kill);
    return GenSide ? Gen : Kill;
  }

  const DataflowSolver *Solver = nullptr;
};

/// Hoistability facts and insertion points.  A bit at a block boundary
/// means some hoisting candidate of the pattern can be moved (backwards,
/// against control flow) to that boundary while preserving semantics.
class HoistabilityAnalysis {
public:
  /// Runs the analysis.  \p Pats must outlive the returned object.
  static HoistabilityAnalysis run(const FlowGraph &G,
                                  const AssignPatternTable &Pats);

  /// As above, against a caller-owned reusable solver and block-local
  /// predicate cache (both must outlive the returned object).  \p PatsGen
  /// as for RedundancyAnalysis::run.
  static HoistabilityAnalysis run(const FlowGraph &G,
                                  const AssignPatternTable &Pats,
                                  DataflowSolver &Solver,
                                  HoistLocalPredicates &Locals,
                                  uint64_t PatsGen);

  /// N-HOISTABLE* / X-HOISTABLE* (greatest solution).
  const BitVector &entryHoistable(BlockId B) const { return Result.entry(B); }
  const BitVector &exitHoistable(BlockId B) const { return Result.exit(B); }

  /// LOC-BLOCKED: patterns blocked by some instruction of the block.
  BitVector locBlocked(BlockId B) const {
    return Locals->locBlocked(B).toBitVector();
  }

  /// LOC-HOISTABLE: patterns with a hoisting candidate in the block.
  BitVector locHoistable(BlockId B) const {
    return Locals->locHoistable(B).toBitVector();
  }
  /// The same, as a word view of the solver's transfer (no copy).
  WordRow locHoistableRow(BlockId B) const { return Locals->locHoistable(B); }

  /// N-INSERT: patterns to insert at the entry of \p B.  The start
  /// node's entry is the hoisting frontier when hoistability reaches it.
  BitVector entryInsert(BlockId B) const {
    BitVector Out(Problem->numBits());
    forEachInsert(B, [&](size_t Pat) { Out.set(Pat); }, nullptr);
    return Out;
  }

  /// X-INSERT: patterns to insert at the exit of \p B.
  BitVector exitInsert(BlockId B) const {
    BitVector Out(Problem->numBits());
    forEachInsert(B, nullptr, [&](size_t Pat) { Out.set(Pat); });
    return Out;
  }

  /// Calls \p Entry(Pat) for every N-INSERT bit and \p Exit(Pat) for
  /// every X-INSERT bit of block \p B, computed word by word from the
  /// solver's rows.  A null callback skips its predicate's reads.
  template <typename EntryFn, typename ExitFn>
  void forEachInsert(BlockId B, EntryFn Entry, ExitFn Exit) const;

  /// Serial of the dataflow solve these facts came from (for remarks).
  uint64_t solveSerial() const { return Result.SolveSerial; }

private:
  const FlowGraph *G = nullptr;
  /// One-shot run(): the solver the locals read from lives as long as
  /// the analysis.
  std::unique_ptr<DataflowSolver> OwnedSolver;
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
  /// Points at OwnedLocals or a caller-provided cache.
  const HoistLocalPredicates *Locals = nullptr;
  std::unique_ptr<HoistLocalPredicates> OwnedLocals;
  mutable std::vector<WordRow> Stops; // scratch
};

template <typename EntryFn, typename ExitFn>
void HoistabilityAnalysis::forEachInsert(BlockId B, EntryFn Entry,
                                         ExitFn Exit) const {
  auto Emit = [](auto &F, size_t W, uint64_t Bits) {
    for (; Bits; Bits &= Bits - 1)
      F(W * 64 + static_cast<size_t>(__builtin_ctzll(Bits)));
  };
  // N-INSERT = N-HOISTABLE* · ∃pred ¬X-HOISTABLE*.  A predecessor whose
  // only successor is B has X-HOISTABLE* = N-HOISTABLE*(B) and stops
  // nothing, so only branching predecessors are read — and a block
  // without one (every join, after edge splitting) inserts nothing at
  // its entry.  The start node's entry is the frontier for everything
  // still hoistable there.
  constexpr bool WantEntry = !std::is_null_pointer_v<EntryFn>;
  constexpr bool WantExit = !std::is_null_pointer_v<ExitFn>;
  bool Start = B == G->start();
  Stops.clear();
  if (WantEntry)
    for (BlockId P : G->block(B).Preds)
      if (G->block(P).Succs.size() > 1)
        Stops.push_back(Result.exitRow(P));
  WordRow N = Result.entryRow(B), X = Result.exitRow(B),
          Blocked = Locals->locBlocked(B);
  bool EntryCanFire = WantEntry && (Start || !Stops.empty());
  // Both predicates need a hoistable bit, so a run (one slice group's
  // words) whose N-HOISTABLE* and X-HOISTABLE* words are all zero is
  // skipped on the engine's live flags without reading it.
  for (size_t C = 0, E = (N.size() + 63) / 64; C < E;
       C += WordRow::ChunkWords) {
    bool NLive = EntryCanFire && N.chunkLive(C);
    bool XLive = WantExit && X.chunkLive(C);
    if (!NLive && !XLive)
      continue;
    for (size_t W = C, CE = std::min(C + WordRow::ChunkWords, E); W != CE;
         ++W) {
      if constexpr (WantEntry)
        if (uint64_t NW = NLive ? N.word(W) : 0) {
          uint64_t Stop = Start ? ~uint64_t(0) : 0;
          for (const WordRow &S : Stops)
            Stop |= ~S.word(W);
          Emit(Entry, W, NW & Stop);
        }
      // X-INSERT = X-HOISTABLE* · LOC-BLOCKED.
      if constexpr (WantExit)
        if (uint64_t XW = XLive ? X.word(W) : 0)
          Emit(Exit, W, XW & Blocked.word(W));
    }
  }
}

//===----------------------------------------------------------------------===//
// Table 3: final flush
//===----------------------------------------------------------------------===//

/// The universe the flush analyses range over: the temporaries h_e whose
/// initialization `h_e := e` occurs in the program.
class FlushUniverse {
public:
  void build(const FlowGraph &G);

  size_t size() const { return Temps.size(); }
  VarId temp(size_t Idx) const { return Temps[Idx].Var; }
  const Term &expr(size_t Idx) const { return Temps[Idx].Expr; }

  static constexpr size_t npos = static_cast<size_t>(-1);
  size_t indexOfTemp(VarId V) const;

  /// IS-INST: the temporary whose initialization \p I is an instance of,
  /// or npos.
  size_t instanceOf(const Instr &I) const;

  /// USED: calls \p F(temp) for every temporary \p I reads (a temporary
  /// read twice is reported twice).
  template <typename Fn> void forEachUsed(const Instr &I, Fn F) const {
    I.forEachUsedVar([&](VarId V) {
      size_t Idx = indexOfTemp(V);
      if (Idx != npos)
        F(Idx);
    });
  }

  /// BLOCKED by a definition of \p V: the temporaries h_e whose
  /// initialization cannot be moved (sunk) across it — V is h_e itself
  /// or an operand of e.  Null when there are none.
  const BitVector *blockedMask(VarId V) const { return Blocked.get(V); }

  BitVector makeVector() const { return BitVector(Temps.size()); }

private:
  struct TempInfo {
    VarId Var;
    Term Expr;
  };
  std::vector<TempInfo> Temps;
  std::vector<size_t> VarToIdx; // dense var index -> temp index or npos
  VarMasks Blocked;
};

//===----------------------------------------------------------------------===//
// Latest placement: PDE sinking and the final flush
//===----------------------------------------------------------------------===//

/// A latest point: the blocking instruction's index in its block (the
/// block's size at the exit), the universe bit, and what the guard made
/// of it.
enum class LatestKind : uint8_t { Drop, Place, Reconstruct };
struct LatestPoint {
  uint32_t Idx, Bit;
  LatestKind K;
};

/// The one "delay until blocked" decision of the paper's ref [17], which
/// PDE sinks assignments by and whose restriction to temporary
/// initializations is Table 3.  Over a solved forward delayability
/// problem whose effects kill exactly what an instruction blocks,
///
///   N-LATEST = N-DELAY* · BLOCKED   (the delayable facts it kills)
///   X-LATEST = X-DELAY* · ∃succ ¬N-DELAY*
///
/// and a backward walk of a solved guard problem classifies each point by
/// the guard fact right after its instruction (at the exit for X-LATEST).
/// Clients supply only a universe filter and the guard.  The walker reads
/// rows and keeps its scratch across blocks.
class LatestPlacement {
public:
  LatestPlacement(const DataflowResult &Delay, const DataflowResult &Guard)
      : Delay(Delay), Guard(Guard), DelayWalk(Delay), GuardWalk(Guard) {}

  /// Calls \p Emit(Point) for every latest point of block \p B whose bit
  /// passes \p InUniverse(Bit) and that \p Classify(I, Bit, After) does
  /// not Drop: the N-LATEST points in instruction order, then the
  /// X-LATEST ones, ascending.  Classify sees the blocking instruction
  /// (null at the exit) and the guard fact after it.
  template <typename InUniverseFn, typename ClassifyFn, typename EmitFn>
  void decide(const FlowGraph &G, BlockId B, InUniverseFn InUniverse,
              ClassifyFn Classify, EmitFn Emit);

private:
  const DataflowResult &Delay, &Guard;
  BlockWalker DelayWalk, GuardWalk;
  std::vector<LatestPoint> Points;
};

template <typename InUniverseFn, typename ClassifyFn, typename EmitFn>
void LatestPlacement::decide(const FlowGraph &G, BlockId B,
                             InUniverseFn InUniverse, ClassifyFn Classify,
                             EmitFn Emit) {
  const BasicBlock &BB = G.block(B);
  Points.clear();
  DelayWalk.walk(B, [&](size_t Idx, const BitVector &NDelay,
                        const LocalEffect &E) {
    E.forEachKilled(NDelay, [&](size_t Bit) {
      if (InUniverse(Bit))
        Points.push_back({static_cast<uint32_t>(Idx),
                          static_cast<uint32_t>(Bit), LatestKind::Drop});
    });
  });
  if (size_t Next = Points.size())
    GuardWalk.walk(B, [&](size_t Idx, const BitVector &After,
                          const LocalEffect &) {
      for (; Next > 0 && Points[Next - 1].Idx == Idx; --Next)
        Points[Next - 1].K =
            Classify(&BB.Instrs[Idx], Points[Next - 1].Bit, After);
    });
  for (const LatestPoint &P : Points)
    if (P.K != LatestKind::Drop)
      Emit(P);

  WordRow XDelay = Delay.exitRow(B), After = Guard.exitRow(B);
  for (size_t W = 0, E = BB.Succs.empty() ? 0 : (XDelay.size() + 63) / 64;
       W != E; ++W) {
    uint64_t AnySuccStops = 0;
    for (BlockId S : BB.Succs)
      AnySuccStops |= ~Delay.entryRow(S).word(W);
    for (uint64_t Hit = XDelay.word(W) & AnySuccStops; Hit; Hit &= Hit - 1) {
      size_t Bit = W * 64 + static_cast<size_t>(__builtin_ctzll(Hit));
      LatestKind K =
          InUniverse(Bit) ? Classify(nullptr, Bit, After) : LatestKind::Drop;
      // After edge splitting each successor of a branching block has a
      // unique predecessor, so delayability never stops at its exit.
      assert((K == LatestKind::Drop || !BB.branchInstr()) &&
             "exit placement at a branching block");
      if (K != LatestKind::Drop)
        Emit(LatestPoint{static_cast<uint32_t>(BB.Instrs.size()),
                         static_cast<uint32_t>(Bit), K});
    }
  }
}

/// Delayability + usability facts (Table 3), read as rows of the solvers
/// that solved them, never copied out.
class FlushAnalysis {
public:
  /// Solves on solvers the analysis owns.
  static FlushAnalysis run(const FlowGraph &G);

  /// Hands \p DelaySolver and \p UsableSolver to the two problems (see
  /// DataflowSolver::handOver) and solves on them, so planes an earlier
  /// phase left in their arenas are reused.  Both must outlive the
  /// analysis, and neither may solve again while its facts are read.
  static FlushAnalysis run(const FlowGraph &G, DataflowSolver &DelaySolver,
                           DataflowSolver &UsableSolver);

  const FlushUniverse &universe() const { return *UniversePtr; }

  /// One block's placements, index-aligned with its instructions at the
  /// time of analysis: the temps initialized before instruction i
  /// (N-INIT), those whose use in i is rewritten to the expression
  /// (RECONSTRUCT), and those initialized at the exit (X-INIT).
  struct BlockPlan {
    SparseRows InitBefore, Reconstruct;
    BitVector InitAtExit;
  };

  /// Block \p B's latest points, as LatestPlacement::decide emits them, with
  /// the guard of Table 3: a latest point usable after it is N-INIT
  /// (X-INIT at the exit); one used here and not usable after it is
  /// RECONSTRUCT (usability *after* the instruction: its own use does not
  /// justify an initialization by itself).
  template <typename EmitFn>
  void place(LatestPlacement &Walk, BlockId B, EmitFn Emit) const {
    Walk.decide(
        *G, B, [](size_t) { return true; },
        [&](const Instr *I, size_t T, const auto &XUsable) {
          if (XUsable.test(T))
            return LatestKind::Place;
          return I && I->usesVar(UniversePtr->temp(T))
                     ? LatestKind::Reconstruct
                     : LatestKind::Drop;
        },
        Emit);
  }

  /// place() collected into one block's plan.
  BlockPlan plan(BlockId B) const;

  /// Raw delayability facts (greatest solution), for tests.
  const DataflowResult &delayability() const { return Delay; }

  /// Raw usability facts (least solution), for tests.
  const DataflowResult &usability() const { return Usable; }

private:
  const FlowGraph *G = nullptr;
  std::unique_ptr<FlushUniverse> UniversePtr;
  std::unique_ptr<DataflowProblem> DelayProblem, UsableProblem;
  // One-shot run() only.  Declared before the results that read their
  // storage, so the results die first and nothing is copied out.
  std::unique_ptr<DataflowSolver> OwnedDelay, OwnedUsable;
  DataflowResult Delay, Usable;
};

} // namespace am

#endif // AM_ANALYSIS_PAPERANALYSES_H
