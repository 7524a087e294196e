//===- ir/Patterns.h - Assignment and expression pattern universes -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pattern universes of Section 2: the set EP of expression patterns
/// and the set AP of assignment patterns occurring in a program, indexed
/// densely so dataflow facts are bit vectors.  Also provides the
/// per-instruction relations every analysis needs:
///
///  * an instruction *blocks* the hoisting of `x := t` if it modifies an
///    operand of t, or uses or modifies x (Definition 3.2);
///  * an instruction *kills* (is not ASS-TRANSP for) `v := t` if it
///    modifies v or an operand of t (Table 2);
///  * an instruction *kills* an expression pattern e if it modifies an
///    operand of e (classic availability/anticipability).
///
/// Each relation is a union of per-variable masks, which a build caches
/// once (VarMasks), so a dataflow effect borrows a few masks instead of
/// writing a full-width vector per instruction.  A build also records
/// each instruction's occurrence index (PerInstr), so the hash lookup
/// runs once per instruction per build.
///
//===----------------------------------------------------------------------===//

#ifndef AM_IR_PATTERNS_H
#define AM_IR_PATTERNS_H

#include "ir/FlowGraph.h"
#include "support/BitVector.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace am {

/// Per-variable bit masks over a pattern universe, stored only for the
/// variables some pattern mentions.  Rebuilding reuses the masks' storage.
class VarMasks {
public:
  /// Drops every mask; later masks have \p NumBits bits.
  void reset(size_t NumVars, size_t NumBits) {
    Slot.assign(NumVars, npos);
    Used = 0;
    Bits = NumBits;
  }

  /// Sets bit \p Bit of \p V's mask, creating the mask on first use.
  void set(VarId V, size_t Bit) {
    uint32_t &S = Slot[index(V)];
    if (S == npos) {
      S = static_cast<uint32_t>(Used++);
      if (Used > Masks.size())
        Masks.emplace_back();
      Masks[S].clearAndResize(Bits);
    }
    Masks[S].set(Bit);
  }

  /// \p V's mask, or null when no pattern mentions \p V.
  const BitVector *get(VarId V) const {
    size_t Idx = index(V);
    if (Idx >= Slot.size() || Slot[Idx] == npos)
      return nullptr;
    return &Masks[Slot[Idx]];
  }

private:
  static constexpr uint32_t npos = static_cast<uint32_t>(-1);
  std::vector<uint32_t> Slot; // var -> mask index or npos
  std::vector<BitVector> Masks;
  size_t Used = 0;
  size_t Bits = 0;
};

/// One value per instruction of the graph snapshot a table was built
/// from, addressed by (block, instruction index).  Only valid until that
/// graph is mutated — the same lifetime as the table's bit indices.
template <typename T> class PerInstr {
public:
  void clear() {
    Off.assign(1, 0);
    Vals.clear();
  }
  void push(const T &V) { Vals.push_back(V); }
  void endBlock() { Off.push_back(static_cast<uint32_t>(Vals.size())); }

  /// Appends block \p B of \p From as the next block.
  void appendBlock(const PerInstr &From, BlockId B) {
    Vals.insert(Vals.end(), From.Vals.begin() + From.Off[B],
                From.Vals.begin() + From.Off[B + 1]);
    endBlock();
  }

  size_t numBlocks() const { return Off.size() - 1; }
  /// Every value, block by block in instruction order.
  const std::vector<T> &values() const { return Vals; }

  const T &at(BlockId B, size_t Idx) const {
    assert(B + 1 < Off.size() && Off[B] + Idx < Off[B + 1] &&
           "instruction position outside the snapshot");
    return Vals[Off[B] + Idx];
  }

private:
  std::vector<uint32_t> Off{0}; // block -> first value
  std::vector<T> Vals;
};

/// An assignment pattern `Lhs := Rhs` (a string pattern, not an occurrence).
struct AssignPat {
  VarId Lhs = VarId::Invalid;
  Term Rhs;

  friend bool operator==(const AssignPat &A, const AssignPat &B) {
    return A.Lhs == B.Lhs && A.Rhs == B.Rhs;
  }
};

/// Dense index over the assignment patterns AP of a program.  The
/// numbering is stable across rebuilds of one table: a pattern keeps its
/// index for the table's lifetime (until clear()), new patterns are
/// appended, and a pattern that no longer occurs keeps its slot (a dead
/// slot, with no rank).  Each build also records the patterns'
/// first-occurrence rank in the built graph — the order a fresh table
/// would number them in — for consumers whose output order is observable.
/// Per-instruction occurrences are only meaningful for the snapshot the
/// table was last built from.
class AssignPatternTable {
public:
  static constexpr size_t npos = static_cast<size_t>(-1);
  /// rank() of a dead slot.
  static constexpr uint32_t NoRank = static_cast<uint32_t>(-1);

  /// Collects every assignment pattern occurring in \p G in deterministic
  /// (block-index, instruction-index) first-occurrence order, keeping the
  /// index of every pattern an earlier build numbered.  Returns true if
  /// the universe grew — only then do the indices of an unchanged
  /// instruction's effects change meaning, so only then must caches keyed
  /// on them be dropped.  Rebuilding reuses the table's existing storage.
  bool build(const FlowGraph &G) { return build(G, 0); }

  /// As build(G), for a table last built from \p G at tick \p Since, with
  /// no block added since: only the blocks \p G stamped after \p Since
  /// are looked up again, the others keep their recorded occurrences, and
  /// the ranks are recomputed from the occurrences.  \p Since 0 scans
  /// every block.
  bool build(const FlowGraph &G, Tick Since);

  /// Forgets the numbering: the next build numbers from scratch.
  void clear();

  size_t size() const { return Pats.size(); }

  const AssignPat &pattern(size_t Idx) const {
    assert(Idx < Pats.size() && "pattern index out of range");
    return Pats[Idx];
  }

  /// Index of pattern `Lhs := Rhs`, or npos.
  size_t indexOf(VarId Lhs, const Term &Rhs) const;

  /// Index of the pattern instruction \p I is an occurrence of, or npos if
  /// \p I is not an assignment (or is an `x := x` pseudo-skip).
  size_t occurrence(const Instr &I) const;

  /// occurrence() of instruction \p Idx of block \p B in the graph the
  /// table was built from, recorded by build() — no lookup.
  size_t occurrenceAt(BlockId B, size_t Idx) const {
    uint32_t Pat = Occ.at(B, Idx);
    return Pat == NoPat ? npos : Pat;
  }

  /// Patterns a definition of \p V modifies — `V := t` and every pattern
  /// whose right-hand side reads V (not ASS-TRANSP, Table 2).  Null when
  /// there are none.
  const BitVector *defMask(VarId V) const { return DefMasks.get(V); }

  /// Patterns with left-hand side \p V, which a *use* of V blocks.  Null
  /// when there are none.
  const BitVector *lhsMask(VarId V) const { return LhsMasks.get(V); }

  /// True if \p I blocks the hoisting of pattern \p Pat.
  bool blocks(const Instr &I, size_t Pat) const;

  /// Sets \p Out to the patterns whose *hoisting* \p I blocks.
  void blockedBy(const Instr &I, BitVector &Out) const;

  /// Sets \p Out to the patterns for which \p I is not ASS-TRANSP.
  void killedBy(const Instr &I, BitVector &Out) const;

  /// Patterns `v := t` with v not an operand of t — the only patterns the
  /// redundancy analysis of Table 2 ranges over.
  const BitVector &redundancyEligible() const { return RedundancyOk; }

  /// Returns a fresh all-false fact vector of the right width.
  BitVector makeVector() const { return BitVector(Pats.size()); }

  /// First-occurrence rank of pattern \p Pat in the last built graph, or
  /// NoRank if it no longer occurs there.
  uint32_t rank(size_t Pat) const { return Ranks[Pat]; }

  /// The occurring patterns in rank order (byRank()[rank(P)] == P).
  const std::vector<uint32_t> &byRank() const { return ByRank; }

  /// Sorts pattern indices \p Pats into rank order.
  void sortByRank(std::vector<size_t> &Pats) const;

private:
  static constexpr uint32_t NoPat = static_cast<uint32_t>(-1);

  std::vector<AssignPat> Pats;
  std::vector<uint32_t> Ranks;  // pattern -> rank in the last build
  std::vector<uint32_t> ByRank; // rank -> pattern
  std::unordered_multimap<size_t, size_t> Index; // hash -> pattern idx
  PerInstr<uint32_t> Occ, PrevOcc; // occurrence per instruction; scratch
  VarMasks DefMasks;
  VarMasks LhsMasks;
  BitVector RedundancyOk;
};

/// Dense index over the expression patterns EP of one program snapshot
/// (assignment right-hand sides and branch-condition operands with exactly
/// one operator).  Used by the LCM baseline and by statistics.
class ExprPatternTable {
public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  void build(const FlowGraph &G);

  size_t size() const { return Terms.size(); }

  const Term &term(size_t Idx) const {
    assert(Idx < Terms.size() && "expression index out of range");
    return Terms[Idx];
  }

  size_t indexOf(const Term &T) const;

  /// Calls \p F(pattern) for every expression pattern instruction \p Idx
  /// of block \p B computes (in the graph the table was built from;
  /// recorded by build(), so no lookup).
  template <typename Fn>
  void forEachComputedAt(BlockId B, size_t Idx, Fn F) const {
    const Computed &C = Comp.at(B, Idx);
    for (uint32_t E : C)
      if (E != NoExpr)
        F(static_cast<size_t>(E));
  }

  /// Patterns with an operand \p V, which a definition of V kills.  Null
  /// when there are none.
  const BitVector *useMask(VarId V) const { return UseMasks.get(V); }

  /// Sets \p Out to the expression patterns computed by \p I (in its
  /// right-hand side or one of its condition operands).
  void computedBy(const Instr &I, BitVector &Out) const;

  /// Sets \p Out to the expression patterns killed by \p I (an operand is
  /// modified).
  void killedBy(const Instr &I, BitVector &Out) const;

  BitVector makeVector() const { return BitVector(Terms.size()); }

private:
  static constexpr uint32_t NoExpr = static_cast<uint32_t>(-1);
  using Computed = std::array<uint32_t, 2>;

  uint32_t noteTerm(const Term &T);

  std::vector<Term> Terms;
  std::unordered_multimap<size_t, size_t> Index;
  PerInstr<Computed> Comp; // patterns computed per instruction
  VarMasks UseMasks;
};

} // namespace am

#endif // AM_IR_PATTERNS_H
