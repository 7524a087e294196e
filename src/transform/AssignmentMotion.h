//===- transform/AssignmentMotion.h - AM phase fixpoint driver -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The assignment motion phase (Section 4.3): exhaustive interleaving of
/// redundant assignment elimination (rae) and assignment hoisting (aht)
/// until the program stabilizes.  This captures all second-order effects:
/// hoisting-elimination, hoisting-hoisting, elimination-hoisting and
/// elimination-elimination.
///
/// Also the motion core aht, PDE sinking and the final flush share: the
/// stable pattern table and the one block rebuild.  Each decides
/// placements against a frozen graph, then rebuilds every block from a
/// sorted insert list, a removal test and an optional rewrite.
///
//===----------------------------------------------------------------------===//

#ifndef AM_TRANSFORM_ASSIGNMENTMOTION_H
#define AM_TRANSFORM_ASSIGNMENTMOTION_H

#include "analysis/PaperAnalyses.h"
#include "dfa/Dataflow.h"
#include "ir/FlowGraph.h"
#include "ir/Patterns.h"
#include "ir/Printer.h"
#include "support/Remarks.h"

#include <iterator>
#include <span>
#include <type_traits>
#include <vector>

namespace am {

/// A stably numbered pattern table bound to one live graph, rebuilt
/// (arena-reusing) only when the graph tick moved, and then only over the
/// blocks stamped since.  A pattern keeps its index, and the generation
/// advances only when the universe grows, so unchanged instructions keep
/// their composed transfers and every tick-stamped solver cache stays
/// valid.  Where index order is observable, consumers use the table's
/// first-occurrence rank, so the output is what a fresh numbering would
/// give.
class PatternContext {
public:
  /// Rebuilds the table if the graph changed since the last refresh: a
  /// structural change rescans every block, otherwise only the blocks
  /// stamped since.
  void refreshPatterns(const FlowGraph &G) {
    if (PatsValid && !G.instrsChangedSince(PatsTick))
      return;
    bool Local = PatsValid && G.structTick() <= PatsTick;
    if (Pats.build(G, Local ? PatsTick : 0))
      ++PatsGen;
    PatsTick = G.modTick();
    PatsValid = true;
  }

  const AssignPatternTable &patterns() const { return Pats; }
  uint64_t patternGeneration() const { return PatsGen; }

  /// Frees the table's storage; the next refresh numbers from scratch.
  void releasePatterns() {
    Pats = AssignPatternTable();
    PatsValid = false;
  }

private:
  AssignPatternTable Pats;
  Tick PatsTick = 0;
  bool PatsValid = false;
  uint64_t PatsGen = 0;
};

/// A remark of kind \p K about instruction \p I, index \p Idx of block
/// \p B, citing solve \p Solve; the caller adds the rest.
inline remarks::Remark describe(remarks::Kind K, const FlowGraph &G,
                                BlockId B, size_t Idx, const Instr &I,
                                uint64_t Solve) {
  remarks::Remark R;
  R.K = K;
  R.InstrId = I.Id;
  R.Block = B;
  R.InstrIndex = static_cast<uint32_t>(Idx);
  R.Pattern = printInstr(I, G.Vars);
  if (I.isAssign())
    R.Var = G.Vars.name(I.Lhs);
  R.Solve = Solve;
  return R;
}

/// The one block rebuild.  It commits only if the instruction list
/// changed, and only then accepts the remarks buffered during it: a
/// remove+reinsert that reproduces the identical list is a no-op whose
/// old instructions, and old ids, survive.  The new list is built only
/// once it leaves the old one, so such a no-op copies no instruction.
class BlockRebuilder {
public:
  /// (instruction index, pattern or temporary): an insertion before that
  /// instruction, or at the block's end for the block's size; likewise a
  /// rewrite of that instruction.
  using Insert = std::pair<uint32_t, uint32_t>;

  /// A buffered remark's part in lineage: an Insert remark descends from
  /// the committed Remove remarks of its key (pattern or temporary).
  enum class Role : uint8_t { Insert, Remove, Other };

  /// \p Keys keys link lineage; 0 with remarks off.
  explicit BlockRebuilder(size_t Keys = 0) : RemovedIds(Keys) {}

  /// Rebuilds block \p B: before instruction i, appends Make(k, NewIdx)
  /// for each insert k at i (NewIdx: its position in the new list); drops
  /// instruction i if Remove(i), else keeps it, through Rewrite(r, Instr &)
  /// for each rewrite r at i, in order.  Every callback runs whether or
  /// not the rebuild commits; it commits, stamping the block, only if the
  /// list changed.
  template <typename MakeFn, typename RemoveFn,
            typename RewriteFn = std::nullptr_t>
  bool rebuild(FlowGraph &G, BlockId B, std::span<const Insert> Inserts,
               MakeFn Make, RemoveFn Remove,
               std::span<const Insert> Rewrites = {},
               RewriteFn Rewrite = nullptr) {
    BasicBlock &BB = G.block(B);
    const std::vector<Instr> &Old = BB.Instrs;
    // While the new list reproduces a prefix of the old one it is not
    // built: Size counts that prefix.  An entry of it equals the old
    // instruction in all but its id (operator== ignores ids), so Ids
    // keeps the ids that differ, which the new list carries.
    size_t Size = 0;
    bool Built = false;
    NewInstrs.clear();
    Ids.clear();
    auto Build = [&] {
      Built = true;
      NewInstrs.assign(Old.begin(), Old.begin() + Size);
      for (auto [Pos, Id] : Ids)
        NewInstrs[Pos].Id = Id;
    };
    auto Emit = [&](Instr I) {
      if (!Built && Size < Old.size() && Old[Size] == I) {
        if (I.Id != Old[Size].Id)
          Ids.emplace_back(Size, I.Id);
        ++Size;
        return;
      }
      if (!Built)
        Build();
      NewInstrs.push_back(std::move(I));
      ++Size;
    };
    size_t K = 0, R = 0;
    auto InsertUpTo = [&](size_t Idx) {
      for (; K < Inserts.size() && Inserts[K].first <= Idx; ++K)
        Emit(Make(K, Size));
    };
    for (size_t Idx = 0; Idx < Old.size(); ++Idx) {
      InsertUpTo(Idx);
      size_t REnd = R;
      while (REnd < Rewrites.size() && Rewrites[REnd].first == Idx)
        ++REnd;
      if (Remove(Idx)) {
        R = REnd;
        continue;
      }
      if (R == REnd && !Built && Idx == Size) {
        ++Size; // the old instruction, in its old place
        continue;
      }
      Instr I = Old[Idx];
      if constexpr (!std::is_null_pointer_v<RewriteFn>)
        for (; R < REnd; ++R)
          Rewrite(R, I);
      R = REnd;
      Emit(std::move(I));
    }
    InsertUpTo(Old.size());
    if (!Built && Size != Old.size())
      Build();
    ++(Built ? Commits : Noops);
    if (Built) {
      // The block keeps its own storage, laid out as later passes walk it.
      BB.Instrs.assign(std::make_move_iterator(NewInstrs.begin()),
                       std::make_move_iterator(NewInstrs.end()));
      G.touchBlock(B);
      for (Pending &P : Buffered) {
        if (P.Part == Role::Remove)
          RemovedIds[P.Key].push_back(P.R.InstrId);
        Accepted.push_back(std::move(P));
      }
    }
    Buffered.clear();
    return Built;
  }

  /// Rebuilds that committed, and that reproduced their block.
  size_t commits() const { return Commits; }
  size_t noops() const { return Noops; }

  /// Buffers a remark of the block being rebuilt; returns it.
  remarks::Remark &remark(remarks::Remark R, size_t Key, Role Part) {
    assert((Part == Role::Other || Key < RemovedIds.size()) && "unkeyed");
    return Buffered.emplace_back(Pending{std::move(R), Key, Part}).R;
  }

  /// Publishes the committed remarks in order, with lineage.
  void publish() {
    for (Pending &P : Accepted) {
      if (P.Part == Role::Insert)
        P.R.Parents = RemovedIds[P.Key];
      remarks::Sink::get().add(std::move(P.R));
    }
    Accepted.clear();
  }

private:
  struct Pending {
    remarks::Remark R;
    size_t Key;
    Role Part;
  };
  std::vector<Instr> NewInstrs;
  std::vector<std::pair<size_t, uint32_t>> Ids;
  size_t Commits = 0, Noops = 0;
  std::vector<Pending> Buffered, Accepted;
  std::vector<std::vector<uint32_t>> RemovedIds;
};

/// State shared across the rae/aht rounds of one AM fixpoint, bound to
/// the one live graph the phase mutates: the pattern table (rae only
/// deletes occurrences and aht only moves copies of existing ones, so the
/// universe AP is fixed), one solver per analysis whose caches and
/// previous solutions persist across rounds, and the hoistability
/// analysis' block-local predicates.
class AmContext : public PatternContext {
public:
  DataflowSolver &redundancySolver() { return RedundancySolver; }
  DataflowSolver &hoistSolver() { return HoistSolver; }
  HoistLocalPredicates &hoistLocals() { return HoistLocals; }

private:
  DataflowSolver RedundancySolver;
  DataflowSolver HoistSolver;
  HoistLocalPredicates HoistLocals;
};

/// Statistics from one run of the AM phase, used by the complexity
/// experiments (Section 4.5 claims the number of iterations is at most
/// quadratic in the program size but linear for realistic programs).
struct AmPhaseStats {
  /// Number of rae+aht rounds until stabilization (including the final
  /// no-change round).
  unsigned Iterations = 0;
  /// Total assignments removed by rae across all rounds.
  unsigned Eliminated = 0;
  /// Number of rounds in which aht changed the program.
  unsigned HoistRounds = 0;
};

/// Runs rae and aht to a fixpoint on \p G (critical edges must be split).
/// \p MaxIterations of 0 means unbounded (the phase always terminates).
AmPhaseStats runAssignmentMotionPhase(FlowGraph &G,
                                      unsigned MaxIterations = 0);

/// As above, with caller-provided shared state (pattern table, solvers)
/// that persists across the rounds — the incremental fast path.
AmPhaseStats runAssignmentMotionPhase(FlowGraph &G, AmContext &Ctx,
                                      unsigned MaxIterations = 0);

} // namespace am

#endif // AM_TRANSFORM_ASSIGNMENTMOTION_H
