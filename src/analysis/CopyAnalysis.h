//===- analysis/CopyAnalysis.h - Reaching copies ----------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reaching-copy analysis for the copy-propagation baseline (used in the
/// paper's Section 6 comparison of "EM + CP" against uniform EM & AM).
/// A copy `x := y` reaches a point if it was executed on every path from s
/// and neither x nor y was modified since.
///
//===----------------------------------------------------------------------===//

#ifndef AM_ANALYSIS_COPYANALYSIS_H
#define AM_ANALYSIS_COPYANALYSIS_H

#include "dfa/Dataflow.h"
#include "ir/Patterns.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace am {

/// The copy patterns `x := y` (variable-to-variable) of one snapshot.
class CopyUniverse {
public:
  void build(const FlowGraph &G);

  size_t size() const { return Copies.size(); }
  VarId dst(size_t Idx) const { return Copies[Idx].Dst; }
  VarId src(size_t Idx) const { return Copies[Idx].Src; }

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Index of the copy pattern \p I is an occurrence of, or npos.
  size_t occurrence(const Instr &I) const;

  /// Calls \p F(copy) for every copy pattern `V := y`, in index order,
  /// until \p F returns true.
  template <typename Fn> void forEachCopyTo(VarId V, Fn F) const {
    size_t Idx = index(V);
    if (Idx + 1 >= DstOff.size())
      return;
    for (uint32_t C = DstOff[Idx]; C < DstOff[Idx + 1]; ++C)
      if (F(static_cast<size_t>(ByDst[C])))
        return;
  }

  /// occurrence() of instruction \p Idx of block \p B in the graph the
  /// universe was built from, recorded by build().
  size_t occurrenceAt(BlockId B, size_t Idx) const {
    uint32_t Copy = Occ.at(B, Idx);
    return Copy == NoCopy ? npos : Copy;
  }

  /// Copies a definition of \p V invalidates (either side is V); null
  /// when there are none.
  const BitVector *killMask(VarId V) const { return Kill.get(V); }

  BitVector makeVector() const { return BitVector(Copies.size()); }

private:
  static constexpr uint32_t NoCopy = static_cast<uint32_t>(-1);

  struct Copy {
    VarId Dst;
    VarId Src;
  };
  static uint64_t key(VarId Dst, VarId Src) {
    return uint64_t(index(Dst)) << 32 | index(Src);
  }

  std::vector<Copy> Copies;
  std::unordered_map<uint64_t, uint32_t> Index; // key(dst, src) -> copy
  /// The copies grouped by destination, each group in index order:
  /// variable v's are ByDst[DstOff[v] .. DstOff[v + 1]).
  std::vector<uint32_t> DstOff, ByDst;
  PerInstr<uint32_t> Occ; // occurrence per instruction
  VarMasks Kill;
};

/// Forward all-path reaching-copies facts.
class CopyAnalysis {
public:
  static CopyAnalysis run(const FlowGraph &G);

  /// Re-runs the analysis on \p G against a caller-owned reusable
  /// solver, rebuilding the universe in place (its storage is reused).
  /// \p Gen must differ from the previous solve's whenever the universe
  /// may have been renumbered (see DataflowSolver).
  void rerun(const FlowGraph &G, DataflowSolver &Solver, uint64_t Gen);

  const CopyUniverse &universe() const { return *U; }

  /// Per-instruction reaching facts of \p B.
  DataflowResult::InstrFacts facts(BlockId B) const {
    return Result.instrFacts(B);
  }

  /// The block-level solution, for BlockWalker scans.
  const DataflowResult &result() const { return Result; }

private:
  std::unique_ptr<CopyUniverse> U;
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
};

} // namespace am

#endif // AM_ANALYSIS_COPYANALYSIS_H
