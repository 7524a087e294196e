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
///    any-path, least), latestness, and the N-INIT / X-INIT / RECONSTRUCT
///    placement predicates.
///
/// Each analysis keeps block-level solutions only; facts(), plan() and the
/// insert predicates are thin adaptors over a BlockWalker scan of a block.
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

#include <memory>

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

  /// The block-level solution, for BlockWalker scans.
  const DataflowResult &result() const { return Result; }

  const BitVector &entry(BlockId B) const { return Result.entry(B); }
  const BitVector &exit(BlockId B) const { return Result.exit(B); }

  /// Serial of the dataflow solve these facts came from (for remarks).
  uint64_t solveSerial() const { return Result.SolveSerial; }

private:
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
};

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

/// The hoistability analysis' block-local predicates (LOC-BLOCKED and
/// LOC-HOISTABLE: the kill and gen sides of the composed block transfer),
/// cacheable across rounds of the AM fixpoint: a refresh recomputes only
/// blocks the graph stamped dirty since the previous refresh, mirroring
/// the solver's transfer cache one layer up.
class HoistLocalPredicates {
public:
  /// Brings the predicates up to date for \p G / \p Pats.  \p PatsGen
  /// identifies the pattern table's contents; a changed generation (or
  /// graph identity / width) rebuilds everything.
  void refresh(const FlowGraph &G, const AssignPatternTable &Pats,
               uint64_t PatsGen);

  const BitVector &locBlocked(BlockId B) const { return LocBlocked[B]; }
  const BitVector &locHoistable(BlockId B) const { return LocHoistable[B]; }

  /// Forgets the cached graph identity so the next refresh rebuilds
  /// everything — required before reusing the cache for a different
  /// graph (AmContext::reset); capacity is kept.
  void invalidate() {
    Valid = false;
    CachedG = nullptr;
  }

private:
  std::vector<BitVector> LocBlocked;
  std::vector<BitVector> LocHoistable;
  const FlowGraph *CachedG = nullptr;
  uint64_t CachedGen = 0;
  size_t CachedBits = 0;
  Tick RefreshTick = 0;
  bool Valid = false;
  LocalEffect Effect; // incremental-refresh scratch
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
  const BitVector &locBlocked(BlockId B) const {
    return Locals->locBlocked(B);
  }

  /// LOC-HOISTABLE: patterns with a hoisting candidate in the block.
  const BitVector &locHoistable(BlockId B) const {
    return Locals->locHoistable(B);
  }

  /// N-INSERT: patterns to insert at the entry of \p B, written into
  /// \p Out (caller scratch, reused without allocating).  The start
  /// node's entry is the hoisting frontier when hoistability reaches it.
  void entryInsert(BlockId B, BitVector &Out) const;
  BitVector entryInsert(BlockId B) const {
    BitVector Out;
    entryInsert(B, Out);
    return Out;
  }

  /// X-INSERT: patterns to insert at the exit of \p B.
  void exitInsert(BlockId B, BitVector &Out) const;
  BitVector exitInsert(BlockId B) const {
    BitVector Out;
    exitInsert(B, Out);
    return Out;
  }

  /// Serial of the dataflow solve these facts came from (for remarks).
  uint64_t solveSerial() const { return Result.SolveSerial; }

private:
  const FlowGraph *G = nullptr;
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
  /// Points at OwnedLocals or a caller-provided cache.
  const HoistLocalPredicates *Locals = nullptr;
  std::unique_ptr<HoistLocalPredicates> OwnedLocals;
};

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

/// Delayability + usability facts (Table 3) with the derived latestness
/// and placement predicates, at instruction granularity.
class FlushAnalysis {
public:
  static FlushAnalysis run(const FlowGraph &G);

  const FlushUniverse &universe() const { return *UniversePtr; }

  /// Placement decisions for one block, index-aligned with its
  /// instructions at the time of analysis.
  struct BlockPlan {
    /// For instruction i, temps whose init goes immediately before i
    /// (N-INIT).
    SparseRows InitBefore;
    /// Temps whose use in instruction i is reconstructed to the original
    /// expression (RECONSTRUCT).
    SparseRows Reconstruct;
    /// Temps whose init goes at the block's exit (X-INIT).
    BitVector InitAtExit;
  };

  /// Computes the placement plan for block \p B: a forward delayability
  /// scan collects the N-LATEST points, a backward usability scan splits
  /// them into N-INIT and RECONSTRUCT.
  BlockPlan plan(BlockId B) const;

  /// Raw delayability facts (greatest solution), for tests.
  const DataflowResult &delayability() const { return Delay; }

  /// Raw usability facts (least solution), for tests.
  const DataflowResult &usability() const { return Usable; }

private:
  const FlowGraph *G = nullptr;
  std::unique_ptr<FlushUniverse> UniversePtr;
  std::unique_ptr<DataflowProblem> DelayProblem;
  std::unique_ptr<DataflowProblem> UsableProblem;
  DataflowResult Delay;
  DataflowResult Usable;
};

} // namespace am

#endif // AM_ANALYSIS_PAPERANALYSES_H
