//===- analysis/LcmAnalyses.h - Lazy-code-motion analyses ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow analyses behind the expression-motion baseline: lazy code
/// motion in the Drechsler/Stadel edge-placement formulation (the paper's
/// refs [10, 15, 16]).  Computes, per expression pattern:
///
///   ANTIN/ANTOUT   anticipability (down-safety), backward all-path
///   AVIN/AVOUT     availability (up-safety), forward all-path
///   EARLIEST(m,n)  earliest safe insertion edges
///   LATER/LATERIN  delayed (lazy) placement
///   INSERT(m,n)    h_e := e insertions on edges
///   DELETE(b)      up-exposed original computations covered by insertions
///
/// The graph must have its critical edges split before running this.
///
//===----------------------------------------------------------------------===//

#ifndef AM_ANALYSIS_LCMANALYSES_H
#define AM_ANALYSIS_LCMANALYSES_H

#include "dfa/Dataflow.h"
#include "ir/Patterns.h"

#include <memory>

namespace am {

/// All block- and edge-level LCM facts for one graph snapshot.  \p Exprs
/// must outlive the analysis object.  The transforms read word rows; the
/// BitVector accessors copy facts out, for tests.
class LcmAnalysis {
public:
  static LcmAnalysis run(const FlowGraph &G, const ExprPatternTable &Exprs);

  const BitVector &antIn(BlockId B) const { return Ant.entry(B); }
  const BitVector &antOut(BlockId B) const { return Ant.exit(B); }
  const BitVector &avIn(BlockId B) const { return Av.entry(B); }
  const BitVector &avOut(BlockId B) const { return Av.exit(B); }

  /// ANTLOC: expressions computed in B before any operand modification.
  BitVector antloc(BlockId B) const { return local(B, true).toBitVector(); }

  /// TRANSP: expressions with no operand modification in B.
  BitVector transp(BlockId B) const;

  /// EARLIEST for the edge B -> Succs[SuccIdx].
  BitVector earliest(BlockId B, size_t SuccIdx) const {
    return earliestRow(B, SuccIdx).toBitVector();
  }

  /// INSERT for the edge B -> Succs[SuccIdx]: place `h_e := e` there.
  /// With the virtual entry edge, LATERIN(s) = ANTIN(s), so no insertions
  /// at the entry of s are ever required.
  BitVector insertOnEdge(BlockId B, size_t SuccIdx) const;

  /// DELETE: up-exposed computations of e in B are redundant and must be
  /// replaced by h_e.
  BitVector deleteIn(BlockId B) const {
    BitVector Del;
    deleteIn(B, Del);
    return Del;
  }

  /// LATERIN, exposed for tests.
  BitVector laterIn(BlockId B) const {
    return WordRow(LaterIn.data() + B * Words, Bits, WordRow::ChunkWords)
        .toBitVector();
  }

  /// ANTIN and EARLIEST as word views, for the transforms.
  WordRow antInRow(BlockId B) const { return Ant.entryRow(B); }
  WordRow earliestRow(BlockId B, size_t SuccIdx) const {
    return WordRow(Earliest.data() + (EdgeBase[B] + SuccIdx) * Words, Bits,
                   WordRow::ChunkWords);
  }

  /// Calls \p F(pattern) for every pattern of INSERT(B, Succs[SuccIdx]),
  /// ascending.  INSERT(m,n) = LATER(m,n) · ¬LATERIN(n), where
  /// LATER(m,n) = EARLIEST(m,n) + LATERIN(m) · ¬ANTLOC(m).
  template <typename Fn>
  void forEachInsert(BlockId B, size_t SuccIdx, Fn F) const {
    WordRow Earliest = earliestRow(B, SuccIdx), Antloc = local(B, true);
    const uint64_t *In = LaterIn.data() + B * Words;
    const uint64_t *SuccIn =
        LaterIn.data() + G->block(B).Succs[SuccIdx] * Words;
    for (size_t W = 0; W < Words; ++W)
      for (uint64_t V = (Earliest.word(W) | (In[W] & ~Antloc.word(W))) &
                        ~SuccIn[W];
           V != 0; V &= V - 1)
        F(W * 64 + static_cast<size_t>(__builtin_ctzll(V)));
  }

  /// Sets \p Out to DELETE(B), reusing its storage.
  void deleteIn(BlockId B, BitVector &Out) const;

private:
  /// ANTLOC(B) (\p Antloc) or ¬TRANSP(B): the gen and kill sides of B's
  /// composed anticipability transfer.
  WordRow local(BlockId B, bool Antloc) const {
    WordRow Gen, Kill;
    AntSolver->transferRows(B, Gen, Kill);
    return Antloc ? Gen : Kill;
  }

  const FlowGraph *G = nullptr;
  size_t Bits = 0;
  size_t Words = 0;
  // Declared before the results that read their storage, so the results
  // die first and nothing is copied out.
  std::unique_ptr<DataflowProblem> AntProblem;
  std::unique_ptr<DataflowProblem> AvProblem;
  std::unique_ptr<DataflowSolver> AntSolver;
  std::unique_ptr<DataflowSolver> AvSolver;
  DataflowResult Ant;
  DataflowResult Av;
  /// Edge (B, SuccIdx) is row EdgeBase[B] + SuccIdx of Earliest.
  std::vector<size_t> EdgeBase;
  /// Row-major planes of Words words per row: EARLIEST per edge, LATERIN
  /// per block.
  std::vector<uint64_t> Earliest;
  std::vector<uint64_t> LaterIn;
};

} // namespace am

#endif // AM_ANALYSIS_LCMANALYSES_H
