//===- transform/RestrictedAssignmentMotion.cpp - Dhamdhere AM --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/RestrictedAssignmentMotion.h"
#include "ir/Patterns.h"
#include "transform/AssignmentHoisting.h"
#include "transform/Normalize.h"
#include "transform/RedundantAssignElim.h"

using namespace am;

namespace {

/// Number of occurrences of pattern `Lhs := Rhs` in \p G.
unsigned countOccurrences(const FlowGraph &G, VarId Lhs, const Term &Rhs) {
  unsigned N = 0;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs)
      if (I.isAssign() && I.Lhs == Lhs && I.Rhs == Rhs)
        ++N;
  return N;
}

} // namespace

FlowGraph am::runRestrictedAssignmentMotion(const FlowGraph &G,
                                            RestrictedAmStats *Stats) {
  RestrictedAmStats Local;
  RestrictedAmStats &S = Stats ? *Stats : Local;

  FlowGraph Work = G;
  removeSkips(Work);
  Work.splitCriticalEdges();

  bool Changed = true;
  while (Changed) {
    Changed = false;
    S.Eliminated += runRedundantAssignmentElimination(Work);

    // Try each pattern in isolation; accept a hoisting only if, followed
    // by redundancy elimination, it reduces the number of occurrences of
    // the hoisted pattern itself ("immediately profitable").
    AssignPatternTable Pats;
    Pats.build(Work);
    for (size_t PatIdx = 0; PatIdx < Pats.size(); ++PatIdx) {
      const AssignPat Pat = Pats.pattern(PatIdx);
      unsigned Before = countOccurrences(Work, Pat.Lhs, Pat.Rhs);
      FlowGraph Trial = Work;
      bool Hoisted = runAssignmentHoisting(
          Trial, [&](const AssignPatternTable &TrialPats) {
            BitVector Allowed(TrialPats.size());
            size_t Idx = TrialPats.indexOf(Pat.Lhs, Pat.Rhs);
            if (Idx != AssignPatternTable::npos)
              Allowed.set(Idx);
            return Allowed;
          });
      if (!Hoisted)
        continue;
      unsigned TrialEliminated = runRedundantAssignmentElimination(Trial);
      if (countOccurrences(Trial, Pat.Lhs, Pat.Rhs) >= Before)
        continue;
      Work = std::move(Trial);
      S.Eliminated += TrialEliminated;
      ++S.ProfitableHoistings;
      Changed = true;
      break; // re-analyze from scratch
    }
  }
  simplify(Work);
  return Work;
}
