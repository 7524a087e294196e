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

#include <memory>
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
  std::vector<Copy> Copies;
  PerInstr<uint32_t> Occ; // occurrence per instruction
  VarMasks Kill;
};

/// Forward all-path reaching-copies facts.
class CopyAnalysis {
public:
  static CopyAnalysis run(const FlowGraph &G);

  const CopyUniverse &universe() const { return *U; }

  /// Per-instruction reaching facts of \p B.
  DataflowResult::InstrFacts facts(BlockId B) const {
    return Result.instrFacts(B);
  }

private:
  std::unique_ptr<CopyUniverse> U;
  std::unique_ptr<DataflowProblem> Problem;
  DataflowResult Result;
};

} // namespace am

#endif // AM_ANALYSIS_COPYANALYSIS_H
