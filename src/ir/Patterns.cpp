//===- ir/Patterns.cpp - Pattern universe implementation -------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "ir/Patterns.h"

#include <algorithm>

using namespace am;

static size_t hashAssignPat(VarId Lhs, const Term &Rhs) {
  return hashTerm(Rhs) * 31u + index(Lhs);
}

bool AssignPatternTable::build(const FlowGraph &G, Tick Since) {
  size_t Known = Pats.size();
  bool Rescan = Since == 0 || Occ.numBlocks() != G.numBlocks();
  std::swap(Occ, PrevOcc);
  Occ.clear();

  // Record each instruction's occurrence, numbering new patterns; a block
  // not stamped since the last build keeps its recorded occurrences.
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    if (!Rescan && G.blockTick(B) <= Since) {
      Occ.appendBlock(PrevOcc, B);
      continue;
    }
    for (const Instr &I : G.block(B).Instrs) {
      uint32_t Pat = NoPat;
      if (I.isAssign() && !I.Rhs.isVarAtom(I.Lhs)) {
        size_t Idx = indexOf(I.Lhs, I.Rhs);
        if (Idx == npos) {
          Idx = Pats.size();
          Pats.push_back({I.Lhs, I.Rhs});
          Index.emplace(hashAssignPat(I.Lhs, I.Rhs), Idx);
        }
        Pat = static_cast<uint32_t>(Idx);
      }
      Occ.push(Pat);
    }
    Occ.endBlock();
  }

  // Rank every pattern in deterministic (block-index, instruction-index)
  // first-occurrence order, straight from the recorded occurrences.
  Ranks.assign(Pats.size(), NoRank);
  ByRank.clear();
  for (uint32_t Pat : Occ.values()) {
    if (Pat != NoPat && Ranks[Pat] == NoRank) {
      Ranks[Pat] = static_cast<uint32_t>(ByRank.size());
      ByRank.push_back(Pat);
    }
  }
  if (Pats.size() == Known)
    return false;

  // The masks are per-pattern properties: only a grown universe (or a
  // new variable, which needs a new pattern to matter) changes them.
  size_t NumPats = Pats.size();
  DefMasks.reset(G.Vars.size(), NumPats);
  LhsMasks.reset(G.Vars.size(), NumPats);
  RedundancyOk.clearAndResize(NumPats);

  for (size_t Idx = 0; Idx < NumPats; ++Idx) {
    const AssignPat &P = Pats[Idx];
    DefMasks.set(P.Lhs, Idx);
    LhsMasks.set(P.Lhs, Idx);
    P.Rhs.forEachVar([&](VarId V) { DefMasks.set(V, Idx); });
    if (!P.Rhs.usesVar(P.Lhs))
      RedundancyOk.set(Idx);
  }
  return true;
}

void AssignPatternTable::clear() {
  Pats.clear();
  Ranks.clear();
  ByRank.clear();
  Index.clear();
  Occ.clear();
  PrevOcc.clear();
  DefMasks.reset(0, 0);
  LhsMasks.reset(0, 0);
  RedundancyOk.clearAndResize(0);
}

void AssignPatternTable::sortByRank(std::vector<size_t> &List) const {
  std::sort(List.begin(), List.end(),
            [&](size_t A, size_t B) { return Ranks[A] < Ranks[B]; });
}

size_t AssignPatternTable::indexOf(VarId Lhs, const Term &Rhs) const {
  auto [It, End] = Index.equal_range(hashAssignPat(Lhs, Rhs));
  for (; It != End; ++It)
    if (Pats[It->second].Lhs == Lhs && Pats[It->second].Rhs == Rhs)
      return It->second;
  return npos;
}

size_t AssignPatternTable::occurrence(const Instr &I) const {
  if (!I.isAssign() || I.Rhs.isVarAtom(I.Lhs))
    return npos;
  return indexOf(I.Lhs, I.Rhs);
}

bool AssignPatternTable::blocks(const Instr &I, size_t Pat) const {
  const AssignPat &P = pattern(Pat);
  VarId Def = I.definedVar();
  if (isValid(Def) && (Def == P.Lhs || P.Rhs.usesVar(Def)))
    return true;
  return I.usesVar(P.Lhs);
}

void AssignPatternTable::blockedBy(const Instr &I, BitVector &Out) const {
  killedBy(I, Out);
  // ... and so does a *use* of x.
  I.forEachUsedVar([&](VarId U) {
    if (const BitVector *M = lhsMask(U))
      Out |= *M;
  });
}

void AssignPatternTable::killedBy(const Instr &I, BitVector &Out) const {
  // A modification of x or of an operand of t kills (and blocks) x := t.
  Out.clearAndResize(Pats.size());
  if (const BitVector *M = defMask(I.definedVar()))
    Out |= *M;
}

uint32_t ExprPatternTable::noteTerm(const Term &T) {
  if (!T.isNonTrivial())
    return NoExpr;
  size_t Idx = indexOf(T);
  if (Idx == npos) {
    Idx = Terms.size();
    Terms.push_back(T);
    Index.emplace(hashTerm(T), Idx);
  }
  return static_cast<uint32_t>(Idx);
}

void ExprPatternTable::build(const FlowGraph &G) {
  Terms.clear();
  Index.clear();
  Comp.clear();

  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (const Instr &I : G.block(B).Instrs) {
      Computed C = {NoExpr, NoExpr};
      if (I.isAssign()) {
        C[0] = noteTerm(I.Rhs);
      } else if (I.isBranch()) {
        C[0] = noteTerm(I.CondL);
        C[1] = noteTerm(I.CondR);
      }
      Comp.push(C);
    }
    Comp.endBlock();
  }

  UseMasks.reset(G.Vars.size(), Terms.size());
  for (size_t Idx = 0; Idx < Terms.size(); ++Idx)
    Terms[Idx].forEachVar([&](VarId V) { UseMasks.set(V, Idx); });
}

size_t ExprPatternTable::indexOf(const Term &T) const {
  if (!T.isNonTrivial())
    return npos;
  auto [It, End] = Index.equal_range(hashTerm(T));
  for (; It != End; ++It)
    if (Terms[It->second] == T)
      return It->second;
  return npos;
}

void ExprPatternTable::computedBy(const Instr &I, BitVector &Out) const {
  Out.clearAndResize(Terms.size());
  auto Note = [&](const Term &T) {
    size_t Idx = indexOf(T);
    if (Idx != npos)
      Out.set(Idx);
  };
  if (I.isAssign()) {
    Note(I.Rhs);
  } else if (I.isBranch()) {
    Note(I.CondL);
    Note(I.CondR);
  }
}

void ExprPatternTable::killedBy(const Instr &I, BitVector &Out) const {
  Out.clearAndResize(Terms.size());
  if (const BitVector *M = useMask(I.definedVar()))
    Out |= *M;
}
