//===- ir/FlowGraph.cpp - Control-flow graph implementation ----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "ir/FlowGraph.h"

#include <algorithm>
#include <unordered_map>

using namespace am;

size_t FlowGraph::numInstrs() const {
  size_t N = 0;
  for (BlockId B = 0; B < numBlocks(); ++B)
    N += block(B).Instrs.size();
  return N;
}

std::vector<std::string> FlowGraph::validate() const {
  std::vector<std::string> Problems;
  auto Complain = [&](std::string Msg) { Problems.push_back(std::move(Msg)); };

  if (Start == InvalidBlock || Start >= numBlocks()) {
    Complain("start node is not set");
    return Problems;
  }
  if (End == InvalidBlock || End >= numBlocks()) {
    Complain("end node is not set");
    return Problems;
  }
  if (!block(Start).Preds.empty())
    Complain("start node has predecessors");
  if (!block(End).Succs.empty())
    Complain("end node has successors");

  // Adjacency lists must be mutually consistent.
  for (BlockId B = 0; B < numBlocks(); ++B) {
    for (BlockId S : block(B).Succs) {
      if (S >= numBlocks()) {
        Complain("block " + std::to_string(B) + " has out-of-range successor");
        continue;
      }
      const auto &P = block(S).Preds;
      if (std::count(P.begin(), P.end(), B) !=
          std::count(block(B).Succs.begin(), block(B).Succs.end(), S))
        Complain("edge " + std::to_string(B) + "->" + std::to_string(S) +
                 " has inconsistent adjacency lists");
    }
    if (B != End && block(B).Succs.empty())
      Complain("non-end block " + std::to_string(B) + " has no successors");
  }

  // Branch conditions: only as the last instruction, only in blocks with
  // more than one successor.
  for (BlockId B = 0; B < numBlocks(); ++B) {
    const auto &Instrs = block(B).Instrs;
    for (size_t I = 0; I < Instrs.size(); ++I)
      if (Instrs[I].isBranch() && I + 1 != Instrs.size())
        Complain("block " + std::to_string(B) +
                 " has a branch condition before its last instruction");
    if (!Instrs.empty() && Instrs.back().isBranch() &&
        block(B).Succs.size() < 2)
      Complain("block " + std::to_string(B) +
               " has a branch condition but fewer than two successors");
  }

  // Every node lies on a path from s to e (Section 2 assumption).
  std::vector<bool> FromStart(numBlocks(), false), ToEnd(numBlocks(), false);
  std::vector<BlockId> Work{Start};
  FromStart[Start] = true;
  while (!Work.empty()) {
    BlockId B = Work.back();
    Work.pop_back();
    for (BlockId S : block(B).Succs)
      if (!FromStart[S]) {
        FromStart[S] = true;
        Work.push_back(S);
      }
  }
  Work.push_back(End);
  ToEnd[End] = true;
  while (!Work.empty()) {
    BlockId B = Work.back();
    Work.pop_back();
    for (BlockId P : block(B).Preds)
      if (!ToEnd[P]) {
        ToEnd[P] = true;
        Work.push_back(P);
      }
  }
  for (BlockId B = 0; B < numBlocks(); ++B) {
    if (!FromStart[B])
      Complain("block " + std::to_string(B) + " unreachable from start");
    else if (!ToEnd[B])
      Complain("block " + std::to_string(B) + " cannot reach end");
  }
  return Problems;
}

namespace {

/// Iterative postorder DFS over an adjacency accessor.
template <typename NextFn>
std::vector<BlockId> postorderFrom(BlockId Root, size_t NumBlocks,
                                   NextFn Next) {
  std::vector<BlockId> Order;
  std::vector<bool> Visited(NumBlocks, false);
  // Stack entries: (block, next child index).
  std::vector<std::pair<BlockId, size_t>> Stack;
  Visited[Root] = true;
  Stack.emplace_back(Root, 0);
  while (!Stack.empty()) {
    auto &[B, ChildIdx] = Stack.back();
    const std::vector<BlockId> &Kids = Next(B);
    if (ChildIdx < Kids.size()) {
      BlockId Kid = Kids[ChildIdx++];
      if (!Visited[Kid]) {
        Visited[Kid] = true;
        Stack.emplace_back(Kid, 0);
      }
      continue;
    }
    Order.push_back(B);
    Stack.pop_back();
  }
  return Order;
}

/// Postorder reversed, with unvisited blocks appended in index order.
std::vector<BlockId> toRpoWithStragglers(std::vector<BlockId> Postorder,
                                         size_t NumBlocks) {
  std::reverse(Postorder.begin(), Postorder.end());
  std::vector<bool> Seen(NumBlocks, false);
  for (BlockId B : Postorder)
    Seen[B] = true;
  for (BlockId B = 0; B < NumBlocks; ++B)
    if (!Seen[B])
      Postorder.push_back(B);
  return Postorder;
}

} // namespace

std::vector<BlockId> FlowGraph::reversePostorder() const {
  assert(Start != InvalidBlock && "graph has no start node");
  auto PO = postorderFrom(Start, numBlocks(), [this](BlockId B) -> const std::vector<BlockId> & {
    return block(B).Succs;
  });
  return toRpoWithStragglers(std::move(PO), numBlocks());
}

std::vector<BlockId> FlowGraph::reverseGraphReversePostorder() const {
  assert(End != InvalidBlock && "graph has no end node");
  auto PO = postorderFrom(End, numBlocks(), [this](BlockId B) -> const std::vector<BlockId> & {
    return block(B).Preds;
  });
  return toRpoWithStragglers(std::move(PO), numBlocks());
}

bool FlowGraph::hasCriticalEdges() const {
  for (BlockId B = 0; B < numBlocks(); ++B) {
    if (block(B).Succs.size() <= 1)
      continue;
    for (BlockId S : block(B).Succs)
      if (block(S).Preds.size() > 1)
        return true;
  }
  return false;
}

unsigned FlowGraph::splitCriticalEdges() {
  unsigned NumSplit = 0;
  size_t OriginalBlocks = numBlocks();
  for (BlockId B = 0; B < OriginalBlocks; ++B) {
    if (block(B).Succs.size() <= 1)
      continue;
    for (size_t SuccIdx = 0; SuccIdx < block(B).Succs.size(); ++SuccIdx) {
      BlockId S = block(B).Succs[SuccIdx];
      if (block(S).Preds.size() <= 1)
        continue;
      // Insert a synthetic node on the edge B -> S, preserving the
      // positional meaning of B's successor list (branch targets).
      BlockId Mid = addBlock();
      block(Mid).Synthetic = true;
      block(B).Succs[SuccIdx] = Mid;
      block(Mid).Preds.push_back(B);
      block(Mid).Succs.push_back(S);
      auto &SPreds = block(S).Preds;
      *std::find(SPreds.begin(), SPreds.end(), B) = Mid;
      touchEdges(B);
      touchEdges(Mid);
      touchEdges(S);
      ++NumSplit;
    }
  }
  return NumSplit;
}

void am::simplify(FlowGraph &G) {
  size_t N = G.numBlocks();

  // `x := x` is identified with skip (Section 2); drop all skips.
  for (BlockId B = 0; B < N; ++B)
    if (std::erase_if(G.Blocks[B].Instrs, [](const Instr &I) {
          return I.isSkip() || (I.isAssign() && I.Rhs.isVarAtom(I.Lhs));
        }))
      G.touchBlock(B);

  // Splice out empty synthetic pass-through blocks: Target maps every
  // block to the kept block its in-edges resolve to, and each chain is
  // walked twice.  A cycle of such blocks (which cannot reach e, so no
  // valid graph has one) keeps the block where a walk longer than the
  // graph stops.
  std::vector<BlockId> Target(N, InvalidBlock);
  for (BlockId B = 0; B < N; ++B) {
    const BasicBlock &BB = G.Blocks[B];
    if (!BB.Synthetic || !BB.Instrs.empty() || BB.Succs.size() != 1 ||
        B == G.Start || B == G.End || BB.Succs[0] == B)
      Target[B] = B;
  }
  for (BlockId B = 0; B < N; ++B) {
    BlockId X = B;
    for (size_t Steps = 0; Target[X] == InvalidBlock && Steps < N; ++Steps)
      X = G.Blocks[X].Succs[0];
    if (Target[X] == InvalidBlock)
      Target[X] = X;
    for (BlockId C = B; Target[C] == InvalidBlock; C = G.Blocks[C].Succs[0])
      Target[C] = Target[X];
  }

  // Compact the kept blocks in order, moving their contents, and re-add
  // every edge's predecessor entry in block order.
  std::vector<BlockId> NewId(N, InvalidBlock);
  BlockId Kept = 0;
  for (BlockId B = 0; B < N; ++B)
    if (Target[B] == B)
      NewId[B] = Kept++;
  for (BlockId B = 0; B < N; ++B) {
    if (Target[B] != B)
      continue;
    BasicBlock &BB = G.Blocks[B];
    for (BlockId &S : BB.Succs)
      S = NewId[Target[S]];
    BB.Preds.clear();
    G.BlockTicks[NewId[B]] = G.BlockTicks[B];
    if (NewId[B] != B)
      G.Blocks[NewId[B]] = std::move(BB);
  }
  G.Blocks.resize(Kept);
  G.BlockTicks.resize(Kept);
  for (BlockId B = 0; B < Kept; ++B)
    for (BlockId S : G.Blocks[B].Succs)
      G.Blocks[S].Preds.push_back(B);
  G.Start = NewId[G.Start];
  G.End = NewId[G.End];
  G.StructTick = ++G.ModTick;
}

FlowGraph am::simplified(const FlowGraph &G) {
  FlowGraph Out = G;
  simplify(Out);
  return Out;
}

namespace {

/// Compares variables of two graphs: ordinary variables by name, temps up
/// to a growing bijection.
class TempBijection {
public:
  TempBijection(const FlowGraph &A, const FlowGraph &B, bool ByNameOnly)
      : A(A), B(B), ByNameOnly(ByNameOnly) {}

  bool varsMatch(VarId VA, VarId VB) {
    bool TempA = A.Vars.isTemp(VA), TempB = B.Vars.isTemp(VB);
    if (TempA != TempB)
      return false;
    if (!TempA || ByNameOnly)
      return A.Vars.name(VA) == B.Vars.name(VB);
    auto ItF = Fwd.find(VA);
    auto ItR = Rev.find(VB);
    if (ItF == Fwd.end() && ItR == Rev.end()) {
      Fwd.emplace(VA, VB);
      Rev.emplace(VB, VA);
      return true;
    }
    return ItF != Fwd.end() && ItR != Rev.end() && ItF->second == VB &&
           ItR->second == VA;
  }

  bool operandsMatch(const Operand &OA, const Operand &OB) {
    if (OA.K != OB.K)
      return false;
    if (OA.isConst())
      return OA.Const == OB.Const;
    return varsMatch(OA.Var, OB.Var);
  }

  bool termsMatch(const Term &TA, const Term &TB) {
    if (TA.Op != TB.Op)
      return false;
    if (!operandsMatch(TA.A, TB.A))
      return false;
    return TA.Op == OpCode::None || operandsMatch(TA.B, TB.B);
  }

  bool instrsMatch(const Instr &IA, const Instr &IB) {
    if (IA.K != IB.K)
      return false;
    switch (IA.K) {
    case Instr::Kind::Skip:
      return true;
    case Instr::Kind::Assign:
      return varsMatch(IA.Lhs, IB.Lhs) && termsMatch(IA.Rhs, IB.Rhs);
    case Instr::Kind::Out: {
      if (IA.OutVars.size() != IB.OutVars.size())
        return false;
      for (size_t I = 0; I < IA.OutVars.size(); ++I)
        if (!varsMatch(IA.OutVars[I], IB.OutVars[I]))
          return false;
      return true;
    }
    case Instr::Kind::Branch:
      return IA.Rel == IB.Rel && termsMatch(IA.CondL, IB.CondL) &&
             termsMatch(IA.CondR, IB.CondR);
    }
    return false;
  }

private:
  const FlowGraph &A;
  const FlowGraph &B;
  bool ByNameOnly;
  std::unordered_map<VarId, VarId> Fwd;
  std::unordered_map<VarId, VarId> Rev;
};

bool graphsMatch(const FlowGraph &A, const FlowGraph &B, bool ModuloTemps) {
  if (A.numBlocks() != B.numBlocks() || A.start() != B.start() ||
      A.end() != B.end())
    return false;
  TempBijection Map(A, B, /*ByNameOnly=*/!ModuloTemps);
  for (BlockId BlkId = 0; BlkId < A.numBlocks(); ++BlkId) {
    const BasicBlock &BA = A.block(BlkId);
    const BasicBlock &BB = B.block(BlkId);
    if (BA.Succs != BB.Succs || BA.Instrs.size() != BB.Instrs.size())
      return false;
    for (size_t I = 0; I < BA.Instrs.size(); ++I)
      if (!Map.instrsMatch(BA.Instrs[I], BB.Instrs[I]))
        return false;
  }
  return true;
}

} // namespace

bool am::equivalentModuloTemps(const FlowGraph &A, const FlowGraph &B) {
  return graphsMatch(A, B, /*ModuloTemps=*/true);
}

bool am::structurallyEqual(const FlowGraph &A, const FlowGraph &B) {
  return graphsMatch(A, B, /*ModuloTemps=*/false);
}
