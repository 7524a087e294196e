//===- ir/FlowGraph.h - Control-flow graphs ---------------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Directed flow graphs G = (N, E, s, e) per Section 2 of the paper: nodes
/// are basic blocks of instructions, edges the (possibly nondeterministic)
/// branching structure, with a unique start node s (no predecessors) and a
/// unique end node e (no successors).  Every node is assumed to lie on a
/// path from s to e; validate() checks this.
///
//===----------------------------------------------------------------------===//

#ifndef AM_IR_FLOWGRAPH_H
#define AM_IR_FLOWGRAPH_H

#include "ir/ExprTable.h"
#include "ir/Instr.h"
#include "ir/VarTable.h"

#include <string>
#include <vector>

namespace am {

/// A monotonically increasing modification timestamp of one FlowGraph.
/// Ticks order mutations: consumers snapshot `modTick()` and later ask
/// which blocks changed since.  Tick 0 is "before every mutation".
using Tick = uint64_t;

/// A basic block: a straight-line instruction sequence plus its CFG edges.
struct BasicBlock {
  std::vector<Instr> Instrs;
  std::vector<BlockId> Succs;
  std::vector<BlockId> Preds;

  /// True for nodes inserted by critical-edge splitting (Section 2.1);
  /// simplify() may splice them back out when they stay empty.
  bool Synthetic = false;

  /// Returns the branch condition instruction if the block ends in one.
  const Instr *branchInstr() const {
    if (!Instrs.empty() && Instrs.back().isBranch())
      return &Instrs.back();
    return nullptr;
  }
};

/// A whole program: blocks, edges, variables and expression patterns.
/// Copyable by value; transformations mutate in place.
class FlowGraph {
public:
  VarTable Vars;
  ExprTable Exprs;

  /// Makes room for \p N blocks in all, so adding them never regrows.
  void reserveBlocks(size_t N) {
    Blocks.reserve(N);
    BlockTicks.reserve(N);
  }

  /// Appends an empty block and returns its id.
  BlockId addBlock() {
    Blocks.emplace_back();
    StructTick = ++ModTick;
    BlockTicks.push_back(ModTick);
    return static_cast<BlockId>(Blocks.size() - 1);
  }

  /// Adds the edge From -> To, maintaining both adjacency lists.  For
  /// blocks ending in a branch condition, the order of successors is
  /// significant: Succs[0] is the true target, Succs[1] the false target.
  void addEdge(BlockId From, BlockId To) {
    block(From).Succs.push_back(To);
    block(To).Preds.push_back(From);
    StructTick = ++ModTick;
    BlockTicks[From] = ModTick;
    BlockTicks[To] = ModTick;
  }

  BasicBlock &block(BlockId Id) {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id];
  }
  const BasicBlock &block(BlockId Id) const {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id];
  }

  size_t numBlocks() const { return Blocks.size(); }

  /// Total number of instructions over all blocks.
  size_t numInstrs() const;

  BlockId start() const { return Start; }
  BlockId end() const { return End; }
  void setStart(BlockId Id) { Start = Id; }
  void setEnd(BlockId Id) { End = Id; }

  /// Checks the structural invariants (unique start/end, consistent
  /// adjacency, every node on an s-to-e path, branch conditions only at
  /// block ends of multi-successor blocks).  Returns human-readable
  /// problems; empty means valid.
  std::vector<std::string> validate() const;

  /// Reverse postorder over forward edges from the start node.  Unreachable
  /// blocks are appended at the end in index order so analyses still see
  /// every block.
  std::vector<BlockId> reversePostorder() const;

  /// Reverse postorder of the *reverse* graph from the end node (the
  /// canonical iteration order for backward analyses).
  std::vector<BlockId> reverseGraphReversePostorder() const;

  /// Splits every critical edge (from a node with >1 successors to a node
  /// with >1 predecessors) by inserting a synthetic node, per Section 2.1.
  /// Returns the number of edges split.
  unsigned splitCriticalEdges();

  /// True if some edge is critical.
  bool hasCriticalEdges() const;

  //===--------------------------------------------------------------------===//
  // Modification ticks
  //
  // Every mutation of the graph bumps a monotonically increasing tick and
  // stamps the blocks it touched.  Incremental consumers (the dataflow
  // solver's transfer cache, the AM phase's pattern table) snapshot
  // `modTick()` after reading the graph and later recompute only what a
  // younger tick invalidates.  `addBlock`/`addEdge` stamp automatically;
  // code that rewrites a block's instruction list in place must call
  // `touchBlock` (all transformations in src/transform/ do).
  //===--------------------------------------------------------------------===//

  /// Tick of the most recent mutation (0 only for an untouched graph).
  Tick modTick() const { return ModTick; }

  /// Tick of the most recent *structural* mutation (blocks or edges
  /// added/rewired).  Cached block orders and dependence info stay valid
  /// while this stands still.
  Tick structTick() const { return StructTick; }

  /// Tick of the most recent mutation touching block \p B.
  Tick blockTick(BlockId B) const {
    assert(B < BlockTicks.size() && "block id out of range");
    return BlockTicks[B];
  }

  /// Records that \p B's instruction list changed.
  void touchBlock(BlockId B) {
    assert(B < BlockTicks.size() && "block id out of range");
    BlockTicks[B] = ++ModTick;
  }

  /// Records an edge rewrite of \p B (adjacency edited in place rather
  /// than through addEdge).
  void touchEdges(BlockId B) {
    StructTick = ++ModTick;
    BlockTicks[B] = ModTick;
  }

  /// True if any block's instruction list (or the graph structure) changed
  /// after tick \p T.  O(1).
  bool instrsChangedSince(Tick T) const { return ModTick > T; }

private:
  friend void simplify(FlowGraph &G);

  std::vector<BasicBlock> Blocks;
  BlockId Start = InvalidBlock;
  BlockId End = InvalidBlock;
  Tick ModTick = 0;
  Tick StructTick = 0;
  std::vector<Tick> BlockTicks;
};

/// Normalizes a graph in place for comparison and final output: deletes
/// skip instructions and `x := x` (identified with skip, Section 2),
/// splices out empty synthetic pass-through blocks, and compacts block ids
/// (preserving relative order).  Predecessor lists come out in the order
/// re-adding every kept edge in block order would give.
void simplify(FlowGraph &G);

/// The normalized copy of \p G (see simplify()).
FlowGraph simplified(const FlowGraph &G);

/// Structural equality that treats compiler temporaries up to a bijective
/// renaming: block structure, edges and instructions must match exactly,
/// ordinary variables must have equal names, and temporaries must map
/// one-to-one.  Used to compare transformation results against the paper's
/// figures regardless of temp numbering.
bool equivalentModuloTemps(const FlowGraph &A, const FlowGraph &B);

/// Exact structural equality including variable names.
bool structurallyEqual(const FlowGraph &A, const FlowGraph &B);

} // namespace am

#endif // AM_IR_FLOWGRAPH_H
