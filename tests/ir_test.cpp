//===- tests/ir_test.cpp - IR, graph and pattern tests ---------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "figures/PaperFigures.h"
#include "ir/Patterns.h"
#include "transform/UniformEmAm.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

namespace {

/// `x := a + b` convenience.
Instr assignAdd(FlowGraph &G, const char *Lhs, const char *A, const char *B) {
  return Instr::assign(G.Vars.getOrCreate(Lhs),
                       Term::binary(OpCode::Add,
                                    Operand::var(G.Vars.getOrCreate(A)),
                                    Operand::var(G.Vars.getOrCreate(B))));
}

/// simplify() against the rebuild it replaces: the same printed program,
/// and the same successor and predecessor order in every block.
void expectSimplifyMatchesRebuild(const FlowGraph &G, const std::string &Ctx) {
  FlowGraph Want = rebuildSimplified(G);
  FlowGraph Got = G;
  simplify(Got);
  ASSERT_EQ(printGraph(Got), printGraph(Want)) << Ctx;
  ASSERT_EQ(Got.numBlocks(), Want.numBlocks()) << Ctx;
  ASSERT_EQ(Got.start(), Want.start()) << Ctx;
  ASSERT_EQ(Got.end(), Want.end()) << Ctx;
  for (BlockId B = 0; B < Got.numBlocks(); ++B) {
    ASSERT_EQ(Got.block(B).Succs, Want.block(B).Succs) << Ctx << " b" << B;
    ASSERT_EQ(Got.block(B).Preds, Want.block(B).Preds) << Ctx << " b" << B;
    ASSERT_EQ(Got.block(B).Synthetic, Want.block(B).Synthetic)
        << Ctx << " b" << B;
  }
}

/// The graphs simplify() is run on: a split input, whose synthetic blocks
/// are all still empty, and the unsimplified uniform result, where some
/// received instructions.
void checkSimplify(const FlowGraph &Input, const std::string &Ctx) {
  FlowGraph Split = Input;
  Split.splitCriticalEdges();
  expectSimplifyMatchesRebuild(Split, Ctx + " split");
  UniformOptions Raw;
  Raw.SimplifyResult = false;
  expectSimplifyMatchesRebuild(runUniformEmAm(Input, Raw), Ctx + " uniform");
}

} // namespace

TEST(Term, UsesVarAndAtoms) {
  FlowGraph G;
  VarId X = G.Vars.getOrCreate("x");
  VarId Y = G.Vars.getOrCreate("y");
  Term T = Term::binary(OpCode::Add, Operand::var(X), Operand::imm(3));
  EXPECT_TRUE(T.isNonTrivial());
  EXPECT_TRUE(T.usesVar(X));
  EXPECT_FALSE(T.usesVar(Y));
  EXPECT_FALSE(Term::var(X).isNonTrivial());
  EXPECT_TRUE(Term::var(X).isVarAtom(X));
  EXPECT_FALSE(Term::imm(5).isVarAtom(X));
}

TEST(Term, EqualityIgnoresBForAtoms) {
  FlowGraph G;
  VarId X = G.Vars.getOrCreate("x");
  Term A = Term::var(X);
  Term B = Term::var(X);
  B.B = Operand::imm(99); // must be irrelevant for atoms
  EXPECT_EQ(A, B);
  EXPECT_EQ(hashTerm(A), hashTerm(B));
}

TEST(Instr, DefinedAndUsedVars) {
  FlowGraph G;
  VarId X = G.Vars.getOrCreate("x");
  VarId Y = G.Vars.getOrCreate("y");
  Instr I = Instr::assign(X, Term::var(Y));
  EXPECT_EQ(I.definedVar(), X);
  EXPECT_TRUE(I.usesVar(Y));
  EXPECT_FALSE(I.usesVar(X));

  // x := x is identified with skip: it defines nothing.
  Instr Self = Instr::assign(X, Term::var(X));
  EXPECT_EQ(Self.definedVar(), VarId::Invalid);

  Instr Out = Instr::out({X, Y});
  EXPECT_EQ(Out.definedVar(), VarId::Invalid);
  EXPECT_TRUE(Out.usesVar(X));

  Instr Br = Instr::branch(Term::var(X), RelOp::Lt, Term::imm(3));
  EXPECT_TRUE(Br.usesVar(X));
  EXPECT_EQ(Br.definedVar(), VarId::Invalid);
}

TEST(VarTable, TempNamingAvoidsCollisions) {
  VarTable V;
  V.getOrCreate("h1");
  VarId T = V.createTemp(makeExprId(0), 1);
  EXPECT_EQ(V.name(T), "h1_");
  EXPECT_TRUE(V.isTemp(T));
  EXPECT_FALSE(V.isTemp(V.lookup("h1")));
}

TEST(ExprTable, InternsStructurally) {
  FlowGraph G;
  VarId A = G.Vars.getOrCreate("a");
  VarId B = G.Vars.getOrCreate("b");
  Term T1 = Term::binary(OpCode::Add, Operand::var(A), Operand::var(B));
  Term T2 = Term::binary(OpCode::Add, Operand::var(A), Operand::var(B));
  Term T3 = Term::binary(OpCode::Add, Operand::var(B), Operand::var(A));
  ExprId E1 = G.Exprs.intern(T1);
  EXPECT_EQ(G.Exprs.intern(T2), E1);
  EXPECT_NE(G.Exprs.intern(T3), E1); // syntactic patterns: a+b != b+a
  VarId H = G.Exprs.temporary(E1, G.Vars);
  EXPECT_EQ(G.Exprs.temporary(E1, G.Vars), H);
  EXPECT_EQ(G.Vars.tempFor(H), E1);
}

TEST(FlowGraph, ValidateAcceptsGoodGraph) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := 1
  goto b1
b1:
  out(x)
  halt
}
)");
  EXPECT_TRUE(G.validate().empty());
  EXPECT_EQ(G.numBlocks(), 2u);
  EXPECT_EQ(G.numInstrs(), 2u);
}

TEST(FlowGraph, ValidateFlagsUnreachableAndDeadEnds) {
  FlowGraph G;
  BlockId A = G.addBlock();
  BlockId B = G.addBlock();
  BlockId C = G.addBlock(); // disconnected
  (void)C;
  G.addEdge(A, B);
  G.setStart(A);
  G.setEnd(B);
  auto Problems = G.validate();
  ASSERT_FALSE(Problems.empty());
  bool FoundUnreachable = false;
  for (const auto &P : Problems)
    FoundUnreachable |= P.find("unreachable") != std::string::npos;
  EXPECT_TRUE(FoundUnreachable);
}

TEST(FlowGraph, ValidateFlagsBranchArity) {
  FlowGraph G;
  BlockId A = G.addBlock();
  BlockId B = G.addBlock();
  G.addEdge(A, B);
  G.setStart(A);
  G.setEnd(B);
  G.block(A).Instrs.push_back(
      Instr::branch(Term::imm(1), RelOp::Lt, Term::imm(2)));
  auto Problems = G.validate();
  ASSERT_EQ(Problems.size(), 1u);
  EXPECT_NE(Problems[0].find("fewer than two successors"), std::string::npos);
}

TEST(FlowGraph, ReversePostorderVisitsPredsFirstOnDags) {
  FlowGraph G = parse(R"(
graph {
b0:
  br b1 b2
b1:
  goto b3
b2:
  goto b3
b3:
  halt
}
)");
  auto Rpo = G.reversePostorder();
  ASSERT_EQ(Rpo.size(), 4u);
  EXPECT_EQ(Rpo.front(), G.start());
  EXPECT_EQ(Rpo.back(), G.end());
}

TEST(FlowGraph, SplitCriticalEdgesInsertsSynthetics) {
  FlowGraph G = parse(R"(
graph {
b0:
  br b1 b2
b1:
  x := 1
  goto b2
b2:
  out(x)
  halt
}
)");
  // Edge b0 -> b2 is critical (b0 has 2 succs, b2 has 2 preds).
  EXPECT_TRUE(G.hasCriticalEdges());
  unsigned NumSplit = G.splitCriticalEdges();
  EXPECT_EQ(NumSplit, 1u);
  EXPECT_FALSE(G.hasCriticalEdges());
  EXPECT_TRUE(G.validate().empty());
  EXPECT_EQ(G.numBlocks(), 4u);
  EXPECT_TRUE(G.block(3).Synthetic);
  // Branch target order preserved: succ 0 still reaches b1 directly.
  EXPECT_EQ(G.block(0).Succs[0], 1u);
  EXPECT_EQ(G.block(0).Succs[1], 3u);
}

TEST(FlowGraph, SplitSelfLoopOnBranchingBlock) {
  FlowGraph G = parse(R"(
graph {
b0:
  goto b1
b1:
  x := x + 1
  br b1 b2
b2:
  out(x)
  halt
}
)");
  EXPECT_TRUE(G.hasCriticalEdges()); // b1 -> b1
  G.splitCriticalEdges();
  EXPECT_FALSE(G.hasCriticalEdges());
  EXPECT_TRUE(G.validate().empty());
}

TEST(FlowGraph, SimplifiedDropsSkipsAndEmptySynthetics) {
  FlowGraph G = parse(R"(
graph {
b0:
  skip
  x := x
  br b1 b2
b1:
  x := 1
  goto b2
b2:
  out(x)
  halt
}
)");
  G.splitCriticalEdges();
  FlowGraph S = simplified(G);
  EXPECT_TRUE(S.validate().empty());
  EXPECT_EQ(S.numBlocks(), 3u); // synthetic dropped again
  EXPECT_EQ(S.block(S.start()).Instrs.size(), 0u);
}

TEST(FlowGraph, SimplifiedKeepsNonEmptySynthetics) {
  FlowGraph G = parse(R"(
graph {
b0:
  br b1 b2
b1:
  x := 1
  goto b2
b2:
  out(x)
  halt
}
)");
  G.splitCriticalEdges();
  G.block(3).Instrs.push_back(assignAdd(G, "y", "a", "b"));
  FlowGraph S = simplified(G);
  EXPECT_EQ(S.numBlocks(), 4u);
}

TEST(Simplify, InPlaceMatchesRebuild) {
  for (uint64_t Seed = 0; Seed < 25 && !HasFatalFailure(); ++Seed)
    checkSimplify(generateStructuredProgram(Seed),
                  "structured seed " + std::to_string(Seed));
  for (uint64_t Seed = 0; Seed < 25 && !HasFatalFailure(); ++Seed)
    checkSimplify(generateIrreducibleCfg(Seed),
                  "irreducible seed " + std::to_string(Seed));
  unsigned Seen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(AM_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".am" || HasFatalFailure())
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Src;
    Src << In.rdbuf();
    checkSimplify(parse(Src.str()), Entry.path().filename().string());
    ++Seen;
  }
  EXPECT_GE(Seen, 5u);

  // A chain of two empty synthetic blocks resolves to the block after it.
  FlowGraph Chain;
  for (int I = 0; I < 5; ++I)
    Chain.addBlock();
  Chain.setStart(0);
  Chain.setEnd(4);
  Chain.block(1).Synthetic = Chain.block(2).Synthetic = true;
  Chain.block(0).Instrs.push_back(Instr::skip());
  Chain.addEdge(0, 1);
  Chain.addEdge(1, 2);
  Chain.addEdge(2, 3);
  Chain.addEdge(0, 3);
  Chain.addEdge(3, 4);
  expectSimplifyMatchesRebuild(Chain, "chain");
  simplify(Chain);
  EXPECT_EQ(Chain.numBlocks(), 3u);
  EXPECT_TRUE(Chain.validate().empty());
}

TEST(FlowGraph, StructuralEqualityAndTempBijection) {
  FlowGraph A = parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  x := h1
  out(x)
  halt
}
)");
  FlowGraph B = parse(R"(
graph {
temp h9
b0:
  h9 := a + b
  x := h9
  out(x)
  halt
}
)");
  EXPECT_TRUE(equivalentModuloTemps(A, B));
  EXPECT_FALSE(structurallyEqual(A, B)); // names differ
  EXPECT_TRUE(structurallyEqual(A, A));

  FlowGraph C = parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  x := x
  out(x)
  halt
}
)");
  EXPECT_FALSE(equivalentModuloTemps(A, C));
}

TEST(FlowGraph, TempBijectionRejectsMerging) {
  // Two distinct temps on one side cannot both map to the same temp.
  FlowGraph A = parse(R"(
graph {
temp h1, h2
b0:
  h1 := a + b
  h2 := a + b
  x := h1
  out(x)
  halt
}
)");
  FlowGraph B = parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  h1 := a + b
  x := h1
  out(x)
  halt
}
)");
  EXPECT_FALSE(equivalentModuloTemps(A, B));
}

TEST(AssignPatternTable, CollectsAndIndexesPatterns) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  y := a + b
  x := a + b
  i := i + 1
  goto b1
b1:
  out(x, y, i)
  halt
}
)");
  AssignPatternTable Pats;
  Pats.build(G);
  // x := a+b, y := a+b, i := i+1 — three distinct patterns.
  EXPECT_EQ(Pats.size(), 3u);
  const Instr &First = G.block(0).Instrs[0];
  EXPECT_EQ(Pats.occurrence(First), 0u);
  EXPECT_EQ(Pats.occurrence(G.block(0).Instrs[2]), 0u);
  EXPECT_EQ(Pats.occurrence(G.block(1).Instrs[0]),
            AssignPatternTable::npos); // out
  // i := i+1 has its lhs among the operands: not redundancy-eligible.
  size_t IdxI = Pats.indexOf(G.Vars.lookup("i"),
                             Term::binary(OpCode::Add,
                                          Operand::var(G.Vars.lookup("i")),
                                          Operand::imm(1)));
  ASSERT_NE(IdxI, AssignPatternTable::npos);
  EXPECT_FALSE(Pats.redundancyEligible().test(IdxI));
  EXPECT_TRUE(Pats.redundancyEligible().test(0));
}

TEST(AssignPatternTable, BlockedByAndKilledBy) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  a := 1
  z := x + 1
  out(z)
  halt
}
)");
  AssignPatternTable Pats;
  Pats.build(G);
  size_t XPat = 0; // x := a + b (first occurrence order)
  BitVector Blocked = Pats.makeVector();
  BitVector Killed = Pats.makeVector();

  // a := 1 modifies an operand of a+b: blocks and kills x := a+b.
  Pats.blockedBy(G.block(0).Instrs[1], Blocked);
  Pats.killedBy(G.block(0).Instrs[1], Killed);
  EXPECT_TRUE(Blocked.test(XPat));
  EXPECT_TRUE(Killed.test(XPat));

  // z := x + 1 *uses* x: blocks the hoisting of x := a+b but does not kill
  // its redundancy.
  Pats.blockedBy(G.block(0).Instrs[2], Blocked);
  Pats.killedBy(G.block(0).Instrs[2], Killed);
  EXPECT_TRUE(Blocked.test(XPat));
  EXPECT_FALSE(Killed.test(XPat));

  // out(z) uses z: blocks z-lhs patterns only.
  Pats.blockedBy(G.block(0).Instrs[3], Blocked);
  size_t ZPat = Pats.indexOf(G.Vars.lookup("z"),
                             Term::binary(OpCode::Add,
                                          Operand::var(G.Vars.lookup("x")),
                                          Operand::imm(1)));
  EXPECT_TRUE(Blocked.test(ZPat));
  EXPECT_FALSE(Blocked.test(XPat));
}

TEST(ExprPatternTable, CollectsFromBranchesToo) {
  FlowGraph G = parse(R"(
graph {
b0:
  x := a + b
  if a + b > c + 1 then b1 else b2
b1:
  goto b2
b2:
  out(x)
  halt
}
)");
  ExprPatternTable Exprs;
  Exprs.build(G);
  EXPECT_EQ(Exprs.size(), 2u); // a+b, c+1
  BitVector Computed = Exprs.makeVector();
  Exprs.computedBy(G.block(0).Instrs[1], Computed);
  EXPECT_EQ(Computed.count(), 2u);
  BitVector Killed = Exprs.makeVector();
  Exprs.killedBy(G.block(0).Instrs[0], Killed); // defines x: kills nothing
  EXPECT_TRUE(Killed.none());
}

TEST(Printer, RoundTripsThroughParser) {
  FlowGraph G = parse(R"(
graph {
temp h1
b0:
  h1 := a + b
  x := h1
  if x > 0 then b1 else b2
b1:
  out(x)
  br b1 b2
b2:
  y := -3
  halt
}
)");
  std::string Printed = printGraph(G);
  FlowGraph Re = parse(Printed);
  EXPECT_TRUE(structurallyEqual(G, Re));
  EXPECT_EQ(printGraph(Re), Printed);
}

TEST(Printer, DotContainsAllBlocksAndEdges) {
  FlowGraph G = figure4();
  std::string Dot = printDot(G, "fig4");
  EXPECT_NE(Dot.find("digraph \"fig4\""), std::string::npos);
  EXPECT_NE(Dot.find("b0 -> b1"), std::string::npos);
  EXPECT_NE(Dot.find("out(i, x, y)"), std::string::npos);
}
