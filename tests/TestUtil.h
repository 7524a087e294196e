//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#ifndef AM_TESTS_TESTUTIL_H
#define AM_TESTS_TESTUTIL_H

#include "gen/RandomProgram.h"
#include "interp/Interpreter.h"
#include "ir/FlowGraph.h"
#include "ir/Printer.h"
#include "parser/Parser.h"

#include <gtest/gtest.h>

namespace am::test {

/// Parses a program (either syntax), failing the test on errors.
inline FlowGraph parse(const std::string &Src) {
  ParseResult R = parseProgram(Src);
  EXPECT_TRUE(R.ok()) << "parse error: " << R.Error << "\nsource:\n" << Src;
  return std::move(R.Graph);
}

/// Counts the occurrences of assignment `LhsName := <term printed as RhsText>`
/// anywhere in \p G; term text uses the printer's spelling, e.g. "a + b".
inline unsigned countAssigns(const FlowGraph &G, const std::string &LhsName,
                             const std::string &RhsText) {
  unsigned N = 0;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs)
      if (I.isAssign() && G.Vars.name(I.Lhs) == LhsName &&
          printTerm(I.Rhs, G.Vars) == RhsText)
        ++N;
  return N;
}

/// Counts instructions in block \p B whose printed form equals \p Text.
inline unsigned countInBlock(const FlowGraph &G, BlockId B,
                             const std::string &Text) {
  unsigned N = 0;
  for (const Instr &I : G.block(B).Instrs)
    if (printInstr(I, G.Vars) == Text)
      ++N;
  return N;
}

/// Counts computations (assignment rhs or branch operand) of the printed
/// term \p TermText anywhere in \p G.
inline unsigned countComputations(const FlowGraph &G,
                                  const std::string &TermText) {
  unsigned N = 0;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs) {
      if (I.isAssign() && I.Rhs.isNonTrivial() &&
          printTerm(I.Rhs, G.Vars) == TermText)
        ++N;
      if (I.isBranch()) {
        if (I.CondL.isNonTrivial() && printTerm(I.CondL, G.Vars) == TermText)
          ++N;
        if (I.CondR.isNonTrivial() && printTerm(I.CondR, G.Vars) == TermText)
          ++N;
      }
    }
  return N;
}

/// A named generator setting: one program *shape* of the workload-shape
/// sweeps (straight-line, loop-heavy, branch-heavy, tiny and huge pattern
/// pools, nondeterminism-heavy).
struct ProgramShape {
  const char *Name;
  GenOptions Opts;
};

inline std::vector<ProgramShape> programShapes() {
  std::vector<ProgramShape> Out;

  GenOptions StraightLine;
  StraightLine.LoopProb = 0;
  StraightLine.IfProb = 0;
  StraightLine.ChooseProb = 0;
  StraightLine.TargetStmts = 60;
  Out.push_back({"straight-line", StraightLine});

  GenOptions LoopHeavy;
  LoopHeavy.LoopProb = 0.45;
  LoopHeavy.IfProb = 0.05;
  LoopHeavy.MaxDepth = 4;
  Out.push_back({"loop-heavy", LoopHeavy});

  GenOptions BranchHeavy;
  BranchHeavy.LoopProb = 0.02;
  BranchHeavy.IfProb = 0.5;
  BranchHeavy.MaxDepth = 5;
  Out.push_back({"branch-heavy", BranchHeavy});

  GenOptions TinyPool;
  TinyPool.PatternPoolSize = 2;
  TinyPool.NumVars = 3;
  Out.push_back({"tiny-pool", TinyPool});

  GenOptions HugePool;
  HugePool.PatternPoolSize = 64;
  HugePool.NumVars = 16;
  Out.push_back({"huge-pool", HugePool});

  GenOptions NondetHeavy;
  NondetHeavy.ChooseProb = 0.35;
  NondetHeavy.IfProb = 0.1;
  Out.push_back({"nondet-heavy", NondetHeavy});

  return Out;
}

/// Runs \p G on inputs where every listed variable gets the paired value.
inline ExecResult
run(const FlowGraph &G,
    std::initializer_list<std::pair<const char *, int64_t>> Inputs,
    uint64_t Seed = 0) {
  std::unordered_map<std::string, int64_t> Map;
  for (const auto &[Name, Value] : Inputs)
    Map.emplace(Name, Value);
  return Interpreter::execute(G, Map, Seed);
}

} // namespace am::test

#endif // AM_TESTS_TESTUTIL_H
