//===- support/BitVector.h - Word-packed dynamic bit set -------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity, word-packed bit vector.  Every dataflow fact in this
/// library is a set of assignment or expression patterns represented as one
/// of these; the solvers rely on the bulk boolean operations being cheap
/// (one machine word per 64 patterns).
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_BITVECTOR_H
#define AM_SUPPORT_BITVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace am {

/// A dynamic bit set of fixed logical size with word-granular bulk
/// operations.  Unlike std::vector<bool> it exposes whole-set operations
/// (andNot, unionWith, ...) that the dataflow solvers need, and it keeps the
/// unused high bits of the last word zero so that equality and population
/// counts are word-wise.
class BitVector {
public:
  BitVector() = default;

  /// Creates a vector of \p NumBits bits, all set to \p Value.
  explicit BitVector(size_t NumBits, bool Value = false) { resize(NumBits, Value); }

  /// Number of logical bits.
  size_t size() const { return NumBits; }

  /// Returns true if no bit is set.
  bool none() const {
    for (uint64_t W : Words)
      if (W != 0)
        return false;
    return true;
  }

  /// Returns true if at least one bit is set.
  bool any() const { return !none(); }

  /// Returns true if every bit is set.
  bool all() const {
    if (NumBits == 0)
      return true;
    size_t Full = NumBits / 64;
    for (size_t I = 0; I < Full; ++I)
      if (Words[I] != ~uint64_t(0))
        return false;
    size_t Rem = NumBits % 64;
    if (Rem != 0 && Words[Full] != ((uint64_t(1) << Rem) - 1))
      return false;
    return true;
  }

  /// Number of set bits.
  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  /// Word-level synonym for count(): the name the transposed solver and
  /// the bulk-op tests use.  One popcount per 64 bits; correct because
  /// the unused high bits of the last word are invariantly zero.
  size_t popcount() const { return count(); }

  //===--------------------------------------------------------------------===//
  // Word-granular access — the transposed ("bit-slice") solver views a
  // vector of patterns as its sequence of 64-pattern machine words, so it
  // can gather word columns across many vectors into its packed matrices
  // and scatter solved columns back.  The unused-high-bits-are-zero
  // invariant is maintained by setWord; readers may rely on it.
  //===--------------------------------------------------------------------===//

  /// Number of backing words, (size() + 63) / 64.
  size_t numWords() const { return Words.size(); }

  /// The \p WordIdx'th 64-bit word (bit i of the word is logical bit
  /// WordIdx * 64 + i).
  uint64_t word(size_t WordIdx) const {
    assert(WordIdx < Words.size() && "BitVector::word out of range");
    return Words[WordIdx];
  }

  /// Overwrites the \p WordIdx'th word.  Bits beyond size() in the last
  /// word are masked off, preserving the equality/popcount invariant.
  void setWord(size_t WordIdx, uint64_t W) {
    assert(WordIdx < Words.size() && "BitVector::setWord out of range");
    Words[WordIdx] = W;
    if (WordIdx + 1 == Words.size())
      clearUnusedBits();
  }

  /// Mask with the valid (in-size) bits of word \p WordIdx set: all-ones
  /// for full words, the partial tail mask for the last word of a
  /// non-multiple-of-64 vector.
  uint64_t wordMask(size_t WordIdx) const {
    assert(WordIdx < Words.size() && "BitVector::wordMask out of range");
    size_t Rem = NumBits % 64;
    if (WordIdx + 1 == Words.size() && Rem != 0)
      return (uint64_t(1) << Rem) - 1;
    return ~uint64_t(0);
  }

  /// The backing words, for word loops that fuse several operands.  A
  /// writer must keep the bits beyond size() in the last word zero.
  uint64_t *data() { return Words.data(); }
  const uint64_t *data() const { return Words.data(); }

  /// Calls \p F(wordIdx, word) for every backing word in ascending order.
  template <typename Fn> void forEachWord(Fn F) const {
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      F(I, Words[I]);
  }

  bool test(size_t Idx) const {
    assert(Idx < NumBits && "BitVector::test out of range");
    return (Words[Idx / 64] >> (Idx % 64)) & 1;
  }

  bool operator[](size_t Idx) const { return test(Idx); }

  void set(size_t Idx) {
    assert(Idx < NumBits && "BitVector::set out of range");
    Words[Idx / 64] |= uint64_t(1) << (Idx % 64);
  }

  void reset(size_t Idx) {
    assert(Idx < NumBits && "BitVector::reset out of range");
    Words[Idx / 64] &= ~(uint64_t(1) << (Idx % 64));
  }

  void set(size_t Idx, bool Value) {
    if (Value)
      set(Idx);
    else
      reset(Idx);
  }

  /// Sets every bit.
  void setAll() {
    for (uint64_t &W : Words)
      W = ~uint64_t(0);
    clearUnusedBits();
  }

  /// Clears every bit.
  void resetAll() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Resets to \p NewSize bits, all false, reusing existing storage when
  /// the capacity suffices (the allocation-free way to re-issue a scratch
  /// vector in a hot loop).
  void clearAndResize(size_t NewSize) {
    NumBits = NewSize;
    Words.assign((NewSize + 63) / 64, 0);
  }

  /// Grows or shrinks to \p NewSize bits; new bits take \p Value.
  void resize(size_t NewSize, bool Value = false) {
    size_t OldSize = NumBits;
    NumBits = NewSize;
    Words.resize((NewSize + 63) / 64, Value ? ~uint64_t(0) : 0);
    if (Value && OldSize < NewSize) {
      // Set the tail bits of the formerly-last word.
      for (size_t I = OldSize; I < NewSize && I % 64 != 0; ++I)
        Words[I / 64] |= uint64_t(1) << (I % 64);
    }
    clearUnusedBits();
  }

  // The binary operations require matching sizes (asserted).  Release
  // builds clamp to the common word prefix and treat the missing bits of
  // the shorter operand as zero, so a size mismatch that slips past the
  // asserts stays in-bounds instead of reading off the end.

  /// In-place intersection.  Sizes must match.
  BitVector &operator&=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    size_t Common = std::min(Words.size(), RHS.Words.size());
    for (size_t I = 0; I != Common; ++I)
      Words[I] &= RHS.Words[I];
    for (size_t I = Common, E = Words.size(); I != E; ++I)
      Words[I] = 0;
    return *this;
  }

  /// In-place union.  Sizes must match.
  BitVector &operator|=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    for (size_t I = 0, E = std::min(Words.size(), RHS.Words.size()); I != E;
         ++I)
      Words[I] |= RHS.Words[I];
    return *this;
  }

  /// In-place symmetric difference.  Sizes must match.
  BitVector &operator^=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    for (size_t I = 0, E = std::min(Words.size(), RHS.Words.size()); I != E;
         ++I)
      Words[I] ^= RHS.Words[I];
    return *this;
  }

  /// In-place set difference: this &= ~RHS.  Sizes must match.
  BitVector &andNot(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    for (size_t I = 0, E = std::min(Words.size(), RHS.Words.size()); I != E;
         ++I)
      Words[I] &= ~RHS.Words[I];
    return *this;
  }

  /// Compound-assignment name for andNot(), paired with |= and &= in the
  /// bulk-op surface (this &= ~RHS; sizes must match).
  BitVector &andNotAssign(const BitVector &RHS) { return andNot(RHS); }

  /// Bitwise complement of the logical bits.
  void flipAll() {
    for (uint64_t &W : Words)
      W = ~W;
    clearUnusedBits();
  }

  friend BitVector operator&(BitVector LHS, const BitVector &RHS) {
    LHS &= RHS;
    return LHS;
  }

  friend BitVector operator|(BitVector LHS, const BitVector &RHS) {
    LHS |= RHS;
    return LHS;
  }

  friend BitVector operator~(BitVector V) {
    V.flipAll();
    return V;
  }

  bool operator==(const BitVector &RHS) const {
    return NumBits == RHS.NumBits && Words == RHS.Words;
  }

  bool operator!=(const BitVector &RHS) const { return !(*this == RHS); }

  /// Returns true if this is a subset of \p RHS (sizes must match).
  bool isSubsetOf(const BitVector &RHS) const {
    assert(NumBits == RHS.NumBits && "size mismatch");
    size_t Common = std::min(Words.size(), RHS.Words.size());
    for (size_t I = 0; I != Common; ++I)
      if ((Words[I] & ~RHS.Words[I]) != 0)
        return false;
    for (size_t I = Common, E = Words.size(); I != E; ++I)
      if (Words[I] != 0)
        return false;
    return true;
  }

  /// Returns true if this and \p RHS share at least one set bit.
  bool intersects(const BitVector &RHS) const {
    assert(NumBits == RHS.NumBits && "size mismatch");
    for (size_t I = 0, E = std::min(Words.size(), RHS.Words.size()); I != E;
         ++I)
      if ((Words[I] & RHS.Words[I]) != 0)
        return true;
    return false;
  }

  /// Index of the first set bit, or size() if none.
  size_t findFirst() const { return findNext(0); }

  /// Index of the first set bit at or after \p From, or size() if none.
  size_t findNext(size_t From) const {
    if (From >= NumBits)
      return NumBits;
    size_t WordIdx = From / 64;
    uint64_t W = Words[WordIdx] & (~uint64_t(0) << (From % 64));
    while (true) {
      if (W != 0)
        return WordIdx * 64 + static_cast<size_t>(__builtin_ctzll(W));
      if (++WordIdx == Words.size())
        return NumBits;
      W = Words[WordIdx];
    }
  }

  /// Calls \p F(index) for every set bit in ascending order.  One word
  /// scan, no allocation — use this in hot loops; setBits() below remains
  /// for tests and printing.
  template <typename Fn> void forEachSetBit(Fn F) const {
    for (size_t WordIdx = 0, E = Words.size(); WordIdx != E; ++WordIdx) {
      uint64_t W = Words[WordIdx];
      while (W != 0) {
        size_t Bit = static_cast<size_t>(__builtin_ctzll(W));
        F(WordIdx * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  /// Collects the indices of all set bits (ascending).
  std::vector<size_t> setBits() const {
    std::vector<size_t> Out;
    for (size_t I = findFirst(); I < NumBits; I = findNext(I + 1))
      Out.push_back(I);
    return Out;
  }

  /// Renders as a 0/1 string, bit 0 first (handy in test failures).
  std::string toString() const {
    std::string S;
    S.reserve(NumBits);
    for (size_t I = 0; I < NumBits; ++I)
      S.push_back(test(I) ? '1' : '0');
    return S;
  }

private:
  void clearUnusedBits() {
    size_t Rem = NumBits % 64;
    if (Rem != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << Rem) - 1;
  }

  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace am

#endif // AM_SUPPORT_BITVECTOR_H
