//===- dfa/MultiPattern.h - Transposed multi-pattern solver ----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transposed ("bit-slice") substrate for the per-pattern dataflow
/// problems of Tables 1-3.  The paper's problems are independent per
/// pattern; the wide-vector solver already packs 64 of them per machine
/// word, but it converges them *together*: one slow pattern keeps every
/// word of every block in the sweep.  Here the width is partitioned into
/// word slices — patterns [64k, 64k+63] form slice k — grouped
/// GroupWidth slices at a time, and each group runs its own worklist
/// fixpoint:
///
///   X[B] = gen[B] | (N[B] & ~kill[B])     (GroupWidth uint64_t each)
///
/// over a flat, arena-backed interleaved lane array per group
/// (PackedLaneMatrix).  Groups share nothing but read-only inputs, so
/// they drain concurrently on the support/ThreadPool — and even on one
/// thread the early-converging groups stop being reswept, while the
/// per-evaluation control cost (worklist, edge walks) is amortized over
/// GroupWidth words.  That combination is where the serial win over the
/// wide-vector path comes from.
///
/// Determinism contract: the per-group fixpoints are exact (same
/// greatest/least solution as the wide solver), each group's schedule is
/// sequential within its task, groups write disjoint arrays, and all
/// counters are per-group sums — so results *and* machine-independent
/// counters are identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef AM_DFA_MULTIPATTERN_H
#define AM_DFA_MULTIPATTERN_H

#include "dfa/SolverCache.h"
#include "ir/FlowGraph.h"
#include "support/Arena.h"
#include "support/BitVector.h"

#include <cstdint>
#include <vector>

namespace am {

class DataflowProblem;

/// The transfer side of the solve-loop working set, interleaved and
/// grouped: slices come in groups of GroupWidth, and per (group, row)
/// the matrix stores one contiguous {gen[GroupWidth], kill[GroupWidth]}
/// lane pair.  One transfer evaluation reads both masks from a single
/// 64-byte lane — with the separate-matrix layout they live megabytes
/// apart and a large solve becomes latency-bound on independent
/// streams.  The group width trades the two overheads against each
/// other: wider groups amortize the per-evaluation control cost
/// (worklist, edge lists, branches) over more words, narrower groups
/// converge and stop resweeping independently sooner.
///
/// The out words the meet side gathers are deliberately NOT in here:
/// they live in their own dense plane (PackedGroupPlane) of GroupWidth
/// words per row, so a group's whole meet-visible state spans
/// rows() * GroupWidth * 8 bytes — small enough to stay cache-resident
/// while the much larger gen/kill pairs stream past once per sweep.
class PackedLaneMatrix {
public:
  /// Word slices per group; 16 * 64 = 1024 patterns advance per evaluation.
  static constexpr size_t GroupWidth = 16;
  static_assert(GroupWidth == WordRow::ChunkWords,
                "a group's run of a row is one WordRow chunk");

  size_t rows() const { return NumRows; }
  size_t bits() const { return NumBits; }
  size_t slices() const { return NumSlices; }
  size_t groups() const { return NumGroups; }

  /// Resizes to \p Rows x \p Bits and zero-fills all lanes.
  void reshape(size_t Rows, size_t Bits) {
    NumRows = Rows;
    NumBits = Bits;
    NumSlices = (Bits + 63) / 64;
    NumGroups = (NumSlices + GroupWidth - 1) / GroupWidth;
    Mem.reset();
    size_t Total = NumRows * NumGroups * 2 * GroupWidth;
    Data = Total ? Mem.allocate<uint64_t>(Total) : nullptr;
    for (size_t I = 0; I < Total; ++I)
      Data[I] = 0;
  }

  /// The lane array of group \p Gr: row B's pair starts at index
  /// B * 2 * GroupWidth, laid out gen words, then kill words.
  uint64_t *groupLanes(size_t Gr) { return Data + Gr * groupStride(); }
  const uint64_t *groupLanes(size_t Gr) const {
    return Data + Gr * groupStride();
  }
  /// Words between the lane arrays of consecutive groups.
  size_t groupStride() const { return NumRows * 2 * GroupWidth; }

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
      uint64_t *Base = groupLanes(Gr) + Row0 * 2 * GroupWidth;
      size_t First = Gr * GroupWidth;
      size_t Live = NumSlices - First < GroupWidth ? NumSlices - First
                                                   : GroupWidth;
      for (size_t R = 0; R < N; ++R) {
        uint64_t *L = Base + R * 2 * GroupWidth;
        const uint64_t *G = Gen[R].data() + First;
        const uint64_t *K = Kill[R].data() + First;
        for (size_t W = 0; W < Live; ++W) {
          L[W] = G[W];
          L[GroupWidth + W] = K[W];
        }
        for (size_t W = Live; W < GroupWidth; ++W) {
          L[W] = 0;
          L[GroupWidth + W] = 0;
        }
      }
    }
  }

private:
  support::Arena Mem;
  uint64_t *Data = nullptr;
  size_t NumRows = 0;
  size_t NumBits = 0;
  size_t NumSlices = 0;
  size_t NumGroups = 0;
};

/// A group-major plane companion to PackedLaneMatrix: per (group, row)
/// GroupWidth contiguous words.  The engine keeps two — the dense out
/// plane the meet side gathers from, and the in plane written once per
/// evaluation and read back only by exportSolution.
class PackedGroupPlane {
public:
  static constexpr size_t GroupWidth = PackedLaneMatrix::GroupWidth;

  void reshape(size_t Rows, size_t Bits) {
    NumRows = Rows;
    size_t NumSlices = (Bits + 63) / 64;
    NumGroups = (NumSlices + GroupWidth - 1) / GroupWidth;
    Mem.reset();
    size_t Total = NumRows * NumGroups * GroupWidth;
    Data = Total ? Mem.allocate<uint64_t>(Total) : nullptr;
    for (size_t I = 0; I < Total; ++I)
      Data[I] = 0;
  }

  uint64_t *groupRow(size_t Gr) { return Data + Gr * groupStride(); }
  const uint64_t *groupRow(size_t Gr) const {
    return Data + Gr * groupStride();
  }
  /// Words between the planes of consecutive groups.
  size_t groupStride() const { return NumRows * GroupWidth; }

private:
  support::Arena Mem;
  uint64_t *Data = nullptr;
  size_t NumRows = 0;
  size_t NumGroups = 0;
};

/// The transposed analog of TransferCache: composed per-block gen/kill
/// transfers stored as packed matrices, refreshed tick-incrementally.
/// A full rebuild composes every position (parallelized over position
/// ranges); an incremental refresh recomposes only tick-dirty blocks.
/// Composition goes through composeBlock, the routine the wide-vector
/// path uses, so the packed transfers agree with it bit for bit.
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

  /// Forgets the cached graph identity (next refresh is a full rebuild)
  /// — required before binding to a different graph, whose address and
  /// ticks could alias the cached ones.
  void invalidate() {
    Valid = false;
    CachedG = nullptr;
  }

  /// Position-space CSR: the meet neighbors of position I are
  /// meetPos()[meetOff()[I] .. meetOff()[I + 1]), likewise the requeue
  /// dependents.
  const uint32_t *meetOff() const { return MeetOff.data(); }
  const uint32_t *meetPos() const { return MeetPos.data(); }
  const uint32_t *depOff() const { return DepOff.data(); }
  const uint32_t *depPos() const { return DepPos.data(); }

private:
  std::vector<uint32_t> MeetOff, MeetPos, DepOff, DepPos;
  const FlowGraph *CachedG = nullptr;
  Tick CachedStruct = 0; ///< structTick the edge lists were built at
  uint64_t CachedGen = 0;
  size_t CachedBits = 0;
  bool CachedForward = true;
  Tick RefreshTick = 0;
  bool Valid = false;
  // Scratch for the serial (incremental) compose path.
  BitVector GenAcc, KillAcc;
  LocalEffect Effect;
};

/// The per-solver transposed engine: packed transfers, the packed
/// previous solution, and one worklist ring per slice group.
/// DataflowSolver owns one and routes worklist solves here when the
/// transposed layout is selected (see solverLayout() in dfa/Dataflow.h).
class TransposedEngine {
public:
  struct SolveRequest {
    const FlowGraph *G = nullptr;
    const DataflowProblem *P = nullptr;
    uint64_t ProblemGen = 0;
    const std::vector<BlockId> *Order = nullptr;
    const std::vector<size_t> *OrderIndex = nullptr;
    bool Forward = true;
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
  /// advances GroupWidth words of every pattern in the group).
  uint64_t solve(const SolveRequest &R);

  /// Word view of block \p B's converged meet side (\p MeetSide) or
  /// transferred side.
  WordRow row(BlockId B, bool MeetSide) const;

  /// Word views of block \p B's packed gen/kill transfer.
  void transferRows(BlockId B, WordRow &Gen, WordRow &Kill) const;

  /// Forgets the packed transfers' graph identity — the cross-graph
  /// reset (see DataflowSolver::invalidate).
  void invalidate() { Transfers.invalidate(); }

private:
  template <bool MeetAll>
  uint64_t drainGroupImpl(size_t Gr, const SolveRequest &R, size_t NumPos,
                          size_t BoundaryPos);

  MultiPatternTransfers Transfers;
  /// Interleaved {gen, kill} solve-loop lanes (see PackedLaneMatrix),
  /// keyed by iteration-order position.
  PackedLaneMatrix LaneM;
  /// The transferred side — the words the meet gathers read.  Dense (one
  /// GroupWidth run per row) so a group's whole meet-visible state stays
  /// cache-resident across the fixpoint.
  PackedGroupPlane OutM;
  /// The meet side, written once per evaluation and read back only by
  /// the result's queries — kept out of the hot loop's read set.
  PackedGroupPlane InM;
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
