//===- support/Arena.h - Bump-pointer arena allocator ----------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena for flat, rebuild-in-one-shot storage: the packed
/// bit matrices of the transposed solver and the flat instruction
/// snapshot allocate their backing arrays here, so a rebuild is one
/// pointer bump instead of per-row vector churn, and reset() reclaims
/// everything at once.  Only trivially-destructible element types are
/// allowed — nothing is ever destroyed element-wise.
///
/// Storage is never zeroed: a slab comes from make_unique_for_overwrite,
/// and the callers write every word before reading it (see
/// PackedLaneMatrix::reshape).  Builds with assertions fill new slabs,
/// and a slab reset() keeps, with a nonzero byte, so a word read before
/// it is written changes results instead of reading a lucky zero.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_ARENA_H
#define AM_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace am::support {

class Arena {
public:
  explicit Arena(size_t SlabBytes = 64 * 1024) : SlabBytes(SlabBytes) {}

  /// Allocates uninitialized storage for \p N objects of \p T, aligned
  /// for T.  The pointer stays valid until reset() or destruction.
  template <typename T> T *allocate(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena never runs destructors");
    return static_cast<T *>(allocateBytes(N * sizeof(T), alignof(T)));
  }

  /// Drops every allocation.  The largest slab is kept for reuse, so a
  /// steady-state rebuild of same-sized structures does not touch the
  /// heap at all.
  void reset() {
    if (Slabs.size() > 1) {
      // Keep only the biggest slab (the last one: slab sizes grow).
      Slabs.front() = std::move(Slabs.back());
      Slabs.resize(1);
    }
    if (!Slabs.empty()) {
      Slabs.front().Used = 0;
      poison(Slabs.front());
    }
    TotalUsed = 0;
  }

  /// Bytes handed out since the last reset (excluding alignment pad).
  size_t bytesUsed() const { return TotalUsed; }

  /// Bytes of slab storage held; unchanged across a reset() and a rebuild
  /// that fits the kept slab.
  size_t capacity() const {
    size_t Bytes = 0;
    for (const Slab &S : Slabs)
      Bytes += S.Size;
    return Bytes;
  }

private:
  struct Slab {
    std::unique_ptr<char[]> Mem;
    size_t Size = 0;
    size_t Used = 0;
  };

  void *allocateBytes(size_t Bytes, size_t Align) {
    TotalUsed += Bytes;
    if (!Slabs.empty()) {
      Slab &S = Slabs.back();
      size_t Aligned = (S.Used + Align - 1) & ~(Align - 1);
      if (Aligned + Bytes <= S.Size) {
        S.Used = Aligned + Bytes;
        return S.Mem.get() + Aligned;
      }
    }
    size_t NewSize = SlabBytes;
    while (NewSize < Bytes + Align)
      NewSize *= 2;
    // Grow geometrically past what has been used so far, so R rebuilds
    // cost O(log R) slabs rather than one per rebuild.
    if (!Slabs.empty() && Slabs.back().Size * 2 > NewSize)
      NewSize = Slabs.back().Size * 2;
    Slab S;
    S.Mem = std::make_unique_for_overwrite<char[]>(NewSize);
    S.Size = NewSize;
    poison(S);
    uintptr_t Base = reinterpret_cast<uintptr_t>(S.Mem.get());
    size_t Pad = (Align - (Base & (Align - 1))) & (Align - 1);
    S.Used = Pad + Bytes;
    Slabs.push_back(std::move(S));
    return Slabs.back().Mem.get() + Pad;
  }

  static void poison([[maybe_unused]] Slab &S) {
#ifndef NDEBUG
    std::memset(S.Mem.get(), 0xA5, S.Size);
#endif
  }

  size_t SlabBytes;
  size_t TotalUsed = 0;
  std::vector<Slab> Slabs;
};

} // namespace am::support

#endif // AM_SUPPORT_ARENA_H
