//===- dfa/MultiPattern.h - Transposed multi-pattern solver ----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transposed ("bit-slice") engine behind every dataflow solve: the
/// paper's Tables 1-3, LCM, liveness, copy analysis and PDE.  The
/// problems are independent per bit, so the width is partitioned into
/// word slices — bits [64k, 64k+63] form slice k — grouped GW slices at a
/// time, and each group runs its own worklist fixpoint:
///
///   X[B] = gen[B] | (N[B] & ~kill[B])     (GW uint64_t each)
///
/// over a flat, arena-backed interleaved lane array per group
/// (PackedLaneMatrix).  Groups share nothing but read-only inputs, so
/// they drain concurrently on the support/ThreadPool — and even on one
/// thread the early-converging groups stop being reswept, while the
/// per-evaluation control cost (worklist, edge walks) is amortized over
/// GW words.
///
/// The group width follows the problem width (groupWidthFor): the slice
/// count rounded up to a power of two, capped at MaxGroupWidth.  A
/// one-word liveness or LCM problem pays one word per row, not sixteen.
///
/// Determinism contract: the per-group fixpoints are exact (the same
/// greatest/least solution a round-robin solve computes), each group's
/// schedule is sequential within its task, groups write disjoint arrays,
/// the group width depends on the problem width alone, and all counters
/// are per-group sums — so results *and* machine-independent counters are
/// identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef AM_DFA_MULTIPATTERN_H
#define AM_DFA_MULTIPATTERN_H

#include "dfa/SolverCache.h"
#include "ir/FlowGraph.h"
#include "support/Arena.h"
#include "support/BitVector.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace am {

class DataflowProblem;

/// Widest slice group: 16 * 64 = 1024 bits advance per evaluation.
constexpr size_t MaxGroupWidth = 16;
static_assert(MaxGroupWidth == WordRow::ChunkWords,
              "a full group's run of a row is one WordRow chunk");

/// Slices per group for a problem of \p Bits: the slice count rounded up
/// to a power of two, at most MaxGroupWidth.  A function of the width
/// alone, never of the thread count.
inline size_t groupWidthFor(size_t Bits) {
  size_t Slices = (Bits + 63) / 64;
  return Slices >= MaxGroupWidth ? MaxGroupWidth
                                 : std::bit_ceil(std::max<size_t>(Slices, 1));
}

/// Points \p Data at \p N unwritten elements of \p Mem, dropping what it
/// held; returns true if the slab the arena kept was large enough.
template <typename T>
bool reallocate(support::Arena &Mem, T *&Data, size_t N) {
  Mem.reset();
  size_t Kept = Mem.capacity();
  Data = N ? Mem.allocate<T>(N) : nullptr;
  return Mem.capacity() == Kept;
}

/// The transfer side of the solve-loop working set, interleaved and
/// grouped: slices come in groups of groupWidth(), and per (group, row)
/// the matrix stores one contiguous {gen[GW], kill[GW]} lane pair.  One
/// transfer evaluation reads both masks from one run — with separate
/// matrices they live megabytes apart and a large solve becomes
/// latency-bound on independent streams.  The group width trades the two
/// overheads against each other: wider groups amortize the
/// per-evaluation control cost (worklist, edge lists, branches) over more
/// words, narrower groups converge and stop resweeping independently
/// sooner.
///
/// The out words the meet side gathers are deliberately NOT in here:
/// they live in their own dense plane (PackedGroupPlane) of GW words per
/// row, so a group's whole meet-visible state spans rows() * GW * 8 bytes
/// — small enough to stay cache-resident while the much larger gen/kill
/// pairs stream past once per sweep.
class PackedLaneMatrix {
public:
  size_t rows() const { return NumRows; }
  size_t bits() const { return NumBits; }
  size_t slices() const { return NumSlices; }
  size_t groups() const { return NumGroups; }
  size_t groupWidth() const { return GW; }

  /// Resizes to \p Rows x \p Bits, leaving every lane unwritten; returns
  /// true if the arena's kept slab held the lanes (no new allocation).
  ///
  /// Nothing here or in the engine's other planes is pre-zeroed.  After
  /// a reshape the first solve is a full one (the transfers are
  /// invalidated, and the solver's solution no longer matches the width
  /// or the structure), and every word is written before it is read:
  ///  * the full compose writes every gen/kill lane of every row, dead
  ///    tail words of a partial final group included (setTransferTile);
  ///  * the full solve resets every out row to the optimistic value
  ///    before any meet reads it;
  ///  * the first sweep evaluates every position, which writes its in
  ///    row and its live flags.
  bool reshape(size_t Rows, size_t Bits) {
    NumRows = Rows;
    NumBits = Bits;
    NumSlices = (Bits + 63) / 64;
    GW = groupWidthFor(Bits);
    NumGroups = (NumSlices + GW - 1) / GW;
    return reallocate(Mem, Data, NumRows * NumGroups * 2 * GW);
  }

  /// The lane array of group \p Gr: row B's pair starts at index
  /// B * 2 * GW, laid out gen words, then kill words.
  uint64_t *groupLanes(size_t Gr) { return Data + Gr * groupStride(); }
  const uint64_t *groupLanes(size_t Gr) const {
    return Data + Gr * groupStride();
  }
  /// Words between the lane arrays of consecutive groups.
  size_t groupStride() const { return NumRows * 2 * GW; }

  /// Mask of the valid (in-width) bits of slice \p S; zero for the dead
  /// tail words of a partial final group.
  uint64_t sliceMask(size_t S) const {
    if (S >= NumSlices)
      return 0;
    size_t Rem = NumBits % 64;
    if (S + 1 == NumSlices && Rem != 0)
      return (uint64_t(1) << Rem) - 1;
    return ~uint64_t(0);
  }

  /// Tile flush: writes \p N consecutive rows starting at \p Row0 from
  /// the staged transfers Gen[0..N) / Kill[0..N); dead tail words of a
  /// partial final group stay zero (the identity transfer).  Writing row
  /// by row would touch every group region (a cache-line-sized write per
  /// group, strided megabytes apart on large programs — the full rebuild
  /// spends its time waiting on that scatter); flushing a tile walks the
  /// groups in the outer loop instead, so each group region receives one
  /// contiguous N-row burst while the staged vectors stay resident.
  void setTransferTile(size_t Row0, size_t N, const BitVector *Gen,
                       const BitVector *Kill) {
    for (size_t Gr = 0; Gr < NumGroups; ++Gr) {
      uint64_t *Base = groupLanes(Gr) + Row0 * 2 * GW;
      size_t First = Gr * GW;
      size_t Live = std::min(NumSlices - First, GW);
      for (size_t R = 0; R < N; ++R) {
        uint64_t *L = Base + R * 2 * GW;
        const uint64_t *G = Gen[R].data() + First;
        const uint64_t *K = Kill[R].data() + First;
        for (size_t W = 0; W < Live; ++W) {
          L[W] = G[W];
          L[GW + W] = K[W];
        }
        for (size_t W = Live; W < GW; ++W) {
          L[W] = 0;
          L[GW + W] = 0;
        }
      }
    }
  }

private:
  /// Slabs start at 4 KB: a one-word problem's planes take a few KB,
  /// which the arena's default 64 KB first slab would dwarf.
  support::Arena Mem{4096};
  uint64_t *Data = nullptr;
  size_t NumRows = 0;
  size_t NumBits = 0;
  size_t NumSlices = 0;
  size_t NumGroups = 0;
  size_t GW = 1;
};

/// A group-major plane companion to PackedLaneMatrix: per (group, row)
/// GW contiguous words.  The engine keeps two — the dense out plane the
/// meet side gathers from, and the in plane written once per evaluation
/// and read back only by the result's queries.
class PackedGroupPlane {
public:
  /// As PackedLaneMatrix::reshape: nothing is written.
  bool reshape(size_t Rows, size_t Bits) {
    NumRows = Rows;
    GW = groupWidthFor(Bits);
    size_t NumGroups = ((Bits + 63) / 64 + GW - 1) / GW;
    return reallocate(Mem, Data, NumRows * NumGroups * GW);
  }

  uint64_t *groupRow(size_t Gr) { return Data + Gr * groupStride(); }
  const uint64_t *groupRow(size_t Gr) const {
    return Data + Gr * groupStride();
  }
  /// Words between the planes of consecutive groups.
  size_t groupStride() const { return NumRows * GW; }

private:
  /// Slabs start at 4 KB: a one-word problem's planes take a few KB,
  /// which the arena's default 64 KB first slab would dwarf.
  support::Arena Mem{4096};
  uint64_t *Data = nullptr;
  size_t NumRows = 0;
  size_t GW = 1;
};

/// Composed per-block gen/kill transfers stored as packed matrices,
/// refreshed tick-incrementally.  A full rebuild composes every position
/// (parallelized over position ranges when the problem has more than one
/// group); an incremental refresh recomposes only tick-dirty blocks.  Validity is tick-based: a block is recomposed
/// only if the graph stamped it after the previous refresh, and the
/// caller bumps the problem generation whenever the effects may answer
/// differently for an unchanged instruction.
class MultiPatternTransfers {
public:
  /// Brings the gen/kill lanes of \p Lanes (the engine's interleaved
  /// working set, already shaped for this solve) up to date for
  /// \p G / \p P; counts recompositions into `dfa.transfers_recomputed`.
  /// Returns true when the refresh was incremental (out lanes of
  /// non-dirty rows were not touched).
  ///
  /// Rows are keyed by *iteration-order position*, not BlockId: block
  /// Order[I] owns row I, so the solver's seed sweep walks the lane
  /// array strictly sequentially.  (The order covers every block: the
  /// graph's postorders append the blocks they cannot reach.)  A full
  /// rebuild also retargets the CSR edge lists into position space
  /// (meetOff/meetPos, depOff/depPos), which is valid as long as the
  /// order is — both are functions of the graph structure and the
  /// problem direction, and either changing forces the full rebuild.
  bool refresh(const FlowGraph &G, const DataflowProblem &P,
               uint64_t ProblemGen, PackedLaneMatrix &Lanes,
               const std::vector<BlockId> &Order,
               const std::vector<size_t> &OrderIndex);

  /// Position-space CSR: the meet neighbors of position I are
  /// meetPos()[meetOff()[I] .. meetOff()[I + 1]), likewise the requeue
  /// dependents.
  const uint32_t *meetOff() const { return MeetOff.data(); }
  const uint32_t *meetPos() const { return MeetPos.data(); }
  const uint32_t *depOff() const { return DepOff.data(); }
  const uint32_t *depPos() const { return DepPos.data(); }

  /// Forces the next refresh to compose every row.
  void invalidate() { Valid = false; }

private:
  std::vector<uint32_t> MeetOff, MeetPos, DepOff, DepPos;
  const FlowGraph *CachedG = nullptr;
  Tick CachedStruct = 0; ///< structTick the edge lists were built at
  uint64_t CachedGen = 0;
  size_t CachedBits = 0;
  bool CachedForward = true;
  Tick RefreshTick = 0;
  bool Valid = false;
  // Scratch for the serial compose paths.
  BitVector GenAcc, KillAcc;
  LocalEffect Effect;
};

/// The per-solver engine: packed transfers, the packed previous solution,
/// and one worklist ring per slice group.  Every DataflowSolver owns one
/// and runs every solve on it.
class TransposedEngine {
public:
  struct SolveRequest {
    const FlowGraph *G = nullptr;
    const DataflowProblem *P = nullptr;
    uint64_t ProblemGen = 0;
    const std::vector<BlockId> *Order = nullptr;
    const std::vector<size_t> *OrderIndex = nullptr;
    bool MeetAll = true;
    BlockId BoundaryBlock = 0;
    const BitVector *Boundary = nullptr;
    /// When set, restart only the blocks in *Dirty (already closed
    /// under the dependence direction); the engine's packed solution must
    /// be the previous converged solve of the same problem (the solver
    /// tracks that).
    bool Incremental = false;
    const std::vector<BlockId> *Dirty = nullptr;
  };

  /// Runs the grouped fixpoint (transfers are refreshed internally);
  /// returns the number of group-block transfer evaluations (each one
  /// advances groupWidth() words of every bit in the group).
  uint64_t solve(const SolveRequest &R);

  /// Slices per group of the last solve (groupWidthFor its width).
  size_t groupWidth() const { return LaneM.groupWidth(); }

  /// Drops the composed transfers, so the next solve composes every row;
  /// the planes' storage is kept for whatever problem comes next.
  void handOver() { Transfers.invalidate(); }

  /// Word view of block \p B's converged meet side (\p MeetSide) or
  /// transferred side, with its live runs (WordRow::chunkLive).
  WordRow row(BlockId B, bool MeetSide) const;

  /// Word views of block \p B's packed gen/kill transfer.
  void transferRows(BlockId B, WordRow &Gen, WordRow &Kill) const;

private:
  /// Drains group \p Gr with the instantiation for groupWidth() and
  /// \p R's meet.
  uint64_t drainGroup(size_t Gr, const SolveRequest &R, size_t NumPos,
                      size_t BoundaryPos);
  template <size_t GW, bool MeetAll>
  uint64_t drainGroupImpl(size_t Gr, const SolveRequest &R, size_t NumPos,
                          size_t BoundaryPos);

  MultiPatternTransfers Transfers;
  /// Interleaved {gen, kill} solve-loop lanes (see PackedLaneMatrix),
  /// keyed by iteration-order position.
  PackedLaneMatrix LaneM;
  /// The transferred side — the words the meet gathers read.  Dense (one
  /// group-width run per row) so a group's whole meet-visible state stays
  /// cache-resident across the fixpoint.
  PackedGroupPlane OutM;
  /// The meet side, written once per evaluation and read back only by
  /// the result's queries — kept out of the hot loop's read set.
  PackedGroupPlane InM;
  /// Live runs: per (group, position), group-major, one byte whose
  /// InLive / OutLive bits say whether the in / out run is nonzero.
  /// Written by every evaluation, next to the runs themselves.
  support::Arena LiveMem{4096};
  uint8_t *Live = nullptr;
  static constexpr uint8_t InLive = 1, OutLive = 2;
  std::vector<WorklistRing> GroupWork;
  /// The incremental restart's dirty closure as ascending positions.
  std::vector<uint32_t> ClosurePos;

  size_t SolBits = 0;
  /// Block -> packed row (iteration-order position).  Borrowed from the
  /// solver's SolveRequest; the solver keeps it alive and stable until
  /// the structure changes, which also invalidates this solution.
  const std::vector<size_t> *SolOrderIndex = nullptr;
};

} // namespace am

#endif // AM_DFA_MULTIPATTERN_H
