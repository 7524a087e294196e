//===- dfa/SolverCache.h - Reusable solver state ----------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// State a DataflowSolver keeps alive between solves so that re-solving a
/// lightly modified graph does not redo work:
///
///  * LocalEffect — one instruction's transfer in sparse form, the unit
///    every problem reports and every composer and walker applies;
///  * WordRow — a view of one block's fact or transfer words in the
///    engine's packed planes (or in a materialized BitVector);
///  * WorklistRing — a flat, index-ordered pending set over the solver's
///    iteration order.  Replaces the heap-based priority queue: pushes and
///    pops are word scans over a bit set, with no allocation in the
///    steady-state inner loop.
///
//===----------------------------------------------------------------------===//

#ifndef AM_DFA_SOLVERCACHE_H
#define AM_DFA_SOLVERCACHE_H

#include "support/BitVector.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace am {

/// The local effect of one instruction on a fact vector, in sparse form:
///
///   out = Gen | (in & ~(KillBits | KillMasks[0] | KillMasks[1] | ...))
///
/// The masks are borrowed from the problem's pattern table (cached once
/// per universe build), so an effect never owns a full-width vector.  A
/// caller reuses one LocalEffect across instructions: clear() keeps the
/// capacity, so the steady state does not allocate.
class LocalEffect {
public:
  void clear() {
    Gen.clear();
    KillBits.clear();
    KillMasks.clear();
  }

  void gen(size_t Bit) { Gen.push_back(static_cast<uint32_t>(Bit)); }
  void kill(size_t Bit) { KillBits.push_back(static_cast<uint32_t>(Bit)); }
  /// Kills every bit of \p Mask; a null mask (a variable no pattern
  /// mentions) kills nothing.
  void killMask(const BitVector *Mask) {
    if (Mask)
      KillMasks.push_back(Mask);
  }

  /// The one transfer routine: V = effect(V).  With \p KillAcc the kill
  /// set is also ORed into *KillAcc, which folds the effect onto a
  /// composed transfer (V = gen side, KillAcc = kill side).
  void apply(BitVector &V, BitVector *KillAcc = nullptr) const;

  /// Calls \p F(bit), ascending, for every bit set in \p In that the
  /// effect kills (the instruction is a stop point for that fact).
  template <typename Fn> void forEachKilled(const BitVector &In, Fn F) const {
    for (size_t W = 0, E = In.numWords(); W != E; ++W) {
      uint64_t K = 0;
      for (const BitVector *M : KillMasks)
        K |= M->data()[W];
      for (uint32_t B : KillBits)
        if (B / 64 == W)
          K |= uint64_t(1) << (B % 64);
      for (uint64_t Hit = In.data()[W] & K; Hit; Hit &= Hit - 1)
        F(W * 64 + static_cast<size_t>(__builtin_ctzll(Hit)));
    }
  }

private:
  std::vector<uint32_t> Gen, KillBits;
  std::vector<const BitVector *> KillMasks;
};

/// A read-only view of one block's fact or transfer words wherever the
/// solver keeps them: contiguous in a BitVector, or in the engine's packed
/// planes, one run of ChunkWords words per slice group, Stride words
/// apart.  ChunkWords is the engine's widest group width; a narrower
/// group width only occurs when a problem has a single group, whose run
/// is the whole row — contiguous, so the same view reads it.  A fact row
/// of the engine also knows which runs hold a set bit (chunkLive), so a
/// scan can skip the rest.  Valid until the owning storage changes.
class WordRow {
public:
  static constexpr size_t ChunkWords = 16;

  WordRow() = default;
  explicit WordRow(const BitVector &V)
      : Base(V.data()), Bits(V.size()), Stride(ChunkWords) {}
  WordRow(const uint64_t *Base, size_t Bits, size_t Stride,
          const uint8_t *Live = nullptr, size_t LiveStride = 0,
          uint8_t LiveBit = 0)
      : Base(Base), Bits(Bits), Stride(Stride), Live(Live),
        LiveStride(LiveStride), LiveBit(LiveBit) {}

  size_t size() const { return Bits; }
  /// False only if chunk(\p W) is all zero, as the engine recorded when
  /// it last evaluated the row; always true for a materialized row and
  /// for a transfer row.
  bool chunkLive(size_t W) const {
    return !Live || (Live[W / ChunkWords * LiveStride] & LiveBit);
  }
  /// Words [W, W + ChunkWords) for \p W a multiple of ChunkWords; they
  /// are contiguous in either layout.
  const uint64_t *chunk(size_t W) const {
    return Base + W / ChunkWords * Stride;
  }
  uint64_t word(size_t W) const { return chunk(W)[W % ChunkWords]; }
  bool test(size_t Bit) const { return (word(Bit / 64) >> (Bit % 64)) & 1; }

  /// Copies the row into \p Out, resizing it to the row's width.  Stored
  /// tail bits are zero, so the copy keeps the BitVector invariant.
  void copyTo(BitVector &Out) const {
    if (Out.size() != Bits)
      Out.clearAndResize(Bits);
    for (size_t W = 0; W < Out.numWords(); W += ChunkWords)
      copyChunkTo(W, Out);
  }
  /// Copies chunk(\p W) into \p Out, which has the row's width.
  void copyChunkTo(size_t W, BitVector &Out) const {
    std::memcpy(Out.data() + W, chunk(W),
                std::min(ChunkWords, Out.numWords() - W) * sizeof(uint64_t));
  }
  BitVector toBitVector() const {
    BitVector Out;
    copyTo(Out);
    return Out;
  }
  /// Calls \p F(index) for every set bit in ascending order.
  template <typename Fn> void forEachSetBit(Fn F) const {
    for (size_t W = 0; W * 64 < Bits; ++W)
      for (uint64_t V = word(W); V != 0; V &= V - 1)
        F(W * 64 + static_cast<size_t>(__builtin_ctzll(V)));
  }

private:
  const uint64_t *Base = nullptr;
  size_t Bits = 0;
  size_t Stride = 0;
  const uint8_t *Live = nullptr;
  size_t LiveStride = 0;
  uint8_t LiveBit = 0;
};

/// A flat, index-ordered bucket ring over a solver iteration order of
/// size N: order indices are pushed in any order and popped ascending
/// from a cursor, wrapping around — the classic round-based schedule for
/// iterative bit-vector analyses, with no heap in push or pop.
class WorklistRing {
public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Empties the ring and sizes it for order indices in [0, N).
  void reset(size_t N) {
    Pending.clearAndResize(N);
    Cursor = 0;
    Count = 0;
  }

  void push(size_t OrderIdx) {
    if (!Pending.test(OrderIdx)) {
      Pending.set(OrderIdx);
      ++Count;
    }
  }

  /// Pops the next pending index at or after the cursor, wrapping to the
  /// lowest pending index when the scan runs off the end.  npos if empty.
  size_t pop() {
    if (Count == 0)
      return npos;
    size_t Idx = Pending.findNext(Cursor);
    if (Idx == Pending.size())
      Idx = Pending.findFirst();
    Pending.reset(Idx);
    --Count;
    Cursor = Idx + 1;
    return Idx;
  }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

private:
  BitVector Pending;
  size_t Cursor = 0;
  size_t Count = 0;
};

} // namespace am

#endif // AM_DFA_SOLVERCACHE_H
