//===- support/SparseRows.h - Sparse per-row bit sets ----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compressed-row set of bit indices: the placement decisions of one
/// block (which temporaries or patterns to materialize before which
/// instruction) are a handful of (row, bit) pairs, so they are stored as
/// such rather than as one full-width BitVector per instruction.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_SPARSEROWS_H
#define AM_SUPPORT_SPARSEROWS_H

#include "support/BitVector.h"

#include <cstdint>
#include <vector>

namespace am {

/// Per-row sets of bit indices in CSR form, row i holding its bits in
/// ascending order.  A Row answers the BitVector queries placement
/// consumers ask without a full-width vector per row.
class SparseRows {
public:
  class Row {
  public:
    bool test(size_t Bit) const {
      for (const uint32_t *P = Begin; P != End; ++P)
        if (*P == Bit)
          return true;
      return false;
    }
    bool none() const { return Begin == End; }
    bool any() const { return Begin != End; }
    bool intersects(const Row &O) const {
      for (const uint32_t *P = Begin; P != End; ++P)
        if (O.test(*P))
          return true;
      return false;
    }
    /// Calls \p F(bit) for every member, ascending.
    template <typename Fn> void forEachSetBit(Fn F) const {
      for (const uint32_t *P = Begin; P != End; ++P)
        F(static_cast<size_t>(*P));
    }
    /// The row as a full-width vector, for listings and tests.
    operator BitVector() const {
      BitVector V(Width);
      forEachSetBit([&](size_t Bit) { V.set(Bit); });
      return V;
    }

  private:
    friend class SparseRows;
    const uint32_t *Begin = nullptr;
    const uint32_t *End = nullptr;
    size_t Width = 0;
  };

  class iterator {
  public:
    iterator(const SparseRows &Rows, size_t I) : Rows(&Rows), I(I) {}
    Row operator*() const { return (*Rows)[I]; }
    iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator!=(const iterator &O) const { return I != O.I; }

  private:
    const SparseRows *Rows;
    size_t I;
  };

  /// Empties the set to \p NumRows rows of \p Width-bit sets.
  void reset(size_t NumRows, size_t Width) {
    Off.assign(NumRows + 1, 0);
    Bits.clear();
    this->Width = Width;
  }
  /// Adds \p Bit to row \p R.  Rows must be filled in ascending order,
  /// bits ascending within a row; finish() seals the set.
  void add(size_t R, size_t Bit) {
    Bits.push_back(static_cast<uint32_t>(Bit));
    ++Off[R + 1];
  }
  void finish() {
    for (size_t R = 1; R < Off.size(); ++R)
      Off[R] += Off[R - 1];
  }

  /// Number of rows (instructions).
  size_t size() const { return Off.empty() ? 0 : Off.size() - 1; }
  Row operator[](size_t R) const {
    Row Out;
    Out.Begin = Bits.data() + Off[R];
    Out.End = Bits.data() + Off[R + 1];
    Out.Width = Width;
    return Out;
  }
  iterator begin() const { return iterator(*this, 0); }
  iterator end() const { return iterator(*this, size()); }

private:
  std::vector<uint32_t> Off; // row -> first bit (size() + 1 entries)
  std::vector<uint32_t> Bits;
  size_t Width = 0;
};

} // namespace am

#endif // AM_SUPPORT_SPARSEROWS_H
