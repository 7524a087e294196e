//===- tests/frontend_test.cpp - Diagnostics and printer goldens -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// The front end's observable contract, pinned verbatim:
//
//  * every parse diagnostic — its message, line and column, in both the
//    rendered `ParseResult::Error` and the structured `Diag` — for a table
//    that reaches every lexical-error and `fail(...)` site of the lexer
//    and both parsers (values recorded from the token-copying lexer the
//    string_view one replaced);
//  * the printer's bytes against `printGraphReference`, the stream-based
//    printer it replaced, and print -> parse -> print identity with equal
//    variable numbering, on generated, optimized and edge-case graphs.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "transform/Pipeline.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

using namespace am;
using namespace am::test;

namespace {

enum class Syntax { Cfg, Structured, Program };

struct DiagCase {
  Syntax S;
  const char *Name;
  std::string Src;
  unsigned Line;
  unsigned Col;
  const char *Message;
};

ParseResult parseAs(Syntax S, const std::string &Src) {
  switch (S) {
  case Syntax::Cfg:
    return parseCfg(Src);
  case Syntax::Structured:
    return parseStructured(Src);
  case Syntax::Program:
    return parseProgram(Src);
  }
  return ParseResult();
}

std::string nestedStatements(unsigned Depth) {
  std::string S = "program {\n";
  for (unsigned I = 0; I < Depth; ++I)
    S += "if (a > b) {\n";
  S += "x := 1;\n";
  for (unsigned I = 0; I < Depth; ++I)
    S += "}\n";
  return S + "}\n";
}

const std::vector<DiagCase> &diagCases() {
  using enum Syntax;
  static const std::vector<DiagCase> Cases = {
      // Lexical errors; a lexical error is reported even when a parse
      // error comes earlier in the source.
      {Cfg, "overflowing literal",
       "graph {\nb0:\n  x := 99999999999999999999\n  halt\n}\n", 3, 8,
       "number literal '99999999999999999999' is too large"},
      {Cfg, "largest literal then stray",
       "graph {\nb0:\n  x := 9223372036854775807 !\n  halt\n}\n", 3, 28,
       "stray '!'"},
      {Cfg, "stray bang", "graph {\nb0:\n  x := a ! b\n  halt\n}\n", 3, 10,
       "stray '!'"},
      {Cfg, "printable stray", "graph {\nb0:\n  x := a ? b\n  halt\n}\n", 3,
       10, "unexpected character '?'"},
      {Cfg, "non-ascii byte", "graph {\nb0:\n  x := \xc3\xa9\n  halt\n}\n", 3,
       8, "unexpected character byte 0xc3"},
      {Cfg, "control byte", "graph {\n\x01\n}\n", 2, 1,
       "unexpected character byte 0x01"},
      {Cfg, "lex error wins over earlier parse error",
       "foo bar\n  x := 1 !\n", 2, 10, "stray '!'"},
      {Cfg, "columns after tab, CR and comment",
       "graph { # c\r\n\tb0:\r\n\t  x := 1 ?\r\n}\r\n", 3, 11,
       "unexpected character '?'"},
      // Keywords cannot name variables.
      {Cfg, "keyword as rhs variable",
       "graph {\nb0:\n  x := then\n  halt\n}\n", 3, 8,
       "keyword 'then' cannot name a variable"},
      {Cfg, "keyword as lhs", "graph {\nb0:\n  then := 1\n  halt\n}\n", 3, 3,
       "keyword 'then' cannot name a variable"},
      {Cfg, "keyword as out argument",
       "graph {\nb0:\n  out(x, while)\n  halt\n}\n", 3, 10,
       "keyword 'while' cannot name a variable"},
      {Cfg, "keyword as temp", "graph {\ntemp goto\nb0:\n  halt\n}\n", 2, 6,
       "keyword 'goto' cannot name a variable"},
      {Cfg, "out used as variable", "graph {\nb0:\n  out := 1\n  halt\n}\n",
       3, 7, "expected '(', found ':='"},
      // Labels and targets.
      {Cfg, "label defined twice",
       "graph {\nb0:\n  goto b1\nb1:\n  halt\nb1:\n  skip\n  goto b0\n}\n",
       7, 3, "block 'b1' defined twice"},
      {Cfg, "undefined goto target",
       "graph {\nb0:\n  goto b9\nb1:\n  halt\n}\n", 7, 1,
       "block 'b9' referenced but never defined"},
      {Cfg, "undefined br target",
       "graph {\nb0:\n  br b1 b7\nb1:\n  halt\n}\n", 7, 1,
       "block 'b7' referenced but never defined"},
      {Cfg, "br with one target", "graph {\nb0:\n  br b1\nb1:\n  halt\n}\n",
       4, 1, "'br' needs at least two targets"},
      {Cfg, "br with no target", "graph {\nb0:\n  br\n}\n", 4, 1,
       "'br' needs at least two targets"},
      {Cfg, "undeclared temp",
       "graph {\ntemp h1, h2\nb0:\n  h1 := a + b\n  halt\n}\n", 7, 1,
       "declared temp 'h2' never occurs"},
      {Cfg, "invalid graph: unreachable block",
       "graph {\nb0:\n  goto b2\nb1:\n  goto b2\nb2:\n  halt\n}\n", 9, 1,
       "invalid graph: block 1 unreachable from start"},
      {Cfg, "invalid graph: block cannot reach end",
       "graph {\nb0:\n  br b1 b2\nb1:\n  goto b1\nb2:\n  halt\n}\n", 9, 1,
       "invalid graph: block 1 cannot reach end"},
      {Cfg, "invalid graph: start has predecessors",
       "graph {\nb0:\n  br b0 b1\nb1:\n  halt\n}\n", 7, 1,
       "invalid graph: start node has predecessors"},
      // Structure of the CFG syntax.
      {Cfg, "empty input", "", 1, 1, "expected 'graph', found end of input"},
      {Cfg, "wrong leading word", "foo { }\n", 1, 1,
       "expected 'graph', found 'foo'"},
      {Cfg, "missing brace", "graph b0:\n  halt\n", 1, 7,
       "expected '{', found identifier"},
      {Cfg, "unterminated graph", "graph {\nb0:\n  halt\n", 4, 1,
       "unterminated graph: expected '}'"},
      {Cfg, "input after the graph",
       "graph {\nb0:\n  out(x)\n  halt\n}\nthis is ignored ; ( 7\n", 6, 1,
       "expected end of input after '}', found identifier"},
      {Cfg, "second closing brace", "graph {\nb0:\n  halt\n}\n}\n", 5, 1,
       "expected end of input after '}', found '}'"},
      {Cfg, "dollar cannot start a name", "graph {\nb0:\n  x := $a\n  halt\n}\n",
       3, 8, "unexpected character '$'"},
      {Cfg, "number as label", "graph {\n5:\n  halt\n}\n", 2, 1,
       "expected block label, found number"},
      {Cfg, "keyword as label", "graph {\ngoto:\n  halt\n}\n", 2, 1,
       "expected block label, found 'goto'"},
      {Cfg, "missing colon", "graph {\nb0\n  halt\n}\n", 3, 3,
       "expected ':' after block label, found identifier"},
      {Cfg, "multiple halt", "graph {\nb0:\n  halt\nb1:\n  halt\n}\n", 6, 1,
       "multiple 'halt' blocks; the end node must be unique"},
      {Cfg, "number as goto target", "graph {\nb0:\n  goto 5\n}\n", 3, 8,
       "expected block name, found number"},
      {Cfg, "keyword as if target",
       "graph {\nb0:\n  if a > b then halt else b1\nb1:\n  halt\n}\n", 3, 17,
       "expected block name, found 'halt'"},
      {Cfg, "no halt block", "graph {\nb0:\n  goto b0\n}\n", 5, 1,
       "no 'halt' block: the graph needs a unique end node"},
      {Cfg, "missing relop",
       "graph {\nb0:\n  if a then b1 else b1\nb1:\n  halt\n}\n", 3, 8,
       "expected relational operator, found 'then'"},
      {Cfg, "missing then",
       "graph {\nb0:\n  if a > b b1 else b1\nb1:\n  halt\n}\n", 3, 12,
       "expected 'then', found 'b1'"},
      {Cfg, "missing else",
       "graph {\nb0:\n  if a > b then b1 b1\nb1:\n  halt\n}\n", 3, 20,
       "expected 'else', found 'b1'"},
      {Cfg, "unary minus on variable",
       "graph {\nb0:\n  x := - y\n  halt\n}\n", 3, 10,
       "expected number after unary '-'"},
      {Cfg, "missing assign", "graph {\nb0:\n  x + 1\n  halt\n}\n", 3, 5,
       "expected ':=', found '+'"},
      {Cfg, "missing operand", "graph {\nb0:\n  x := +\n  halt\n}\n", 3, 8,
       "expected variable name, found '+'"},
      {Cfg, "missing second operand", "graph {\nb0:\n  x := a *\n  halt\n}\n",
       4, 3, "keyword 'halt' cannot name a variable"},
      {Cfg, "out without paren", "graph {\nb0:\n  out x\n  halt\n}\n", 3, 7,
       "expected '(', found identifier"},
      {Cfg, "out without close", "graph {\nb0:\n  out(x y)\n  halt\n}\n", 3,
       9, "expected ')', found identifier"},
      {Cfg, "eof inside block", "graph {\nb0:\n  x := 1\n", 4, 1,
       "expected variable name, found end of input"},
      {Cfg, "missing terminator before label",
       "graph {\nb0:\n  x := 1\nb1:\n  halt\n}\n", 4, 3,
       "expected ':=', found ':'"},
      // The structured language.
      {Structured, "overflowing literal",
       "program {\n  x := 18446744073709551616;\n}\n", 2, 8,
       "number literal '18446744073709551616' is too large"},
      {Structured, "stray bang", "program {\n  x := !a;\n}\n", 2, 8,
       "stray '!'"},
      {Structured, "non-ascii byte", "program {\n  x := a \xff;\n}\n", 2, 10,
       "unexpected character byte 0xff"},
      {Structured, "keyword as variable", "program {\n  then := 1;\n}\n", 2, 3,
       "keyword 'then' cannot name a variable"},
      {Structured, "keyword in expression",
       "program {\n  x := a + graph;\n}\n", 2, 12,
       "keyword 'graph' cannot name a variable"},
      {Structured, "keyword in out", "program {\n  out(x, temp);\n}\n", 2, 10,
       "keyword 'temp' cannot name a variable"},
      {Structured, "expression nesting limit",
       "program {\n  x := " + std::string(300, '(') + "a" +
           std::string(300, ')') + ";\n}\n",
       2, 264, "expression nesting too deep (limit 256)"},
      {Structured, "statement nesting limit", nestedStatements(300), 258, 1,
       "statement nesting too deep (limit 256)"},
      {Structured, "end of input in statements", "program {\n  x := 1;\n", 3,
       1, "unexpected end of input in statement list"},
      {Structured, "end of input in body",
       "program {\n  while (a < b) {\n    x := 1;\n", 4, 1,
       "unexpected end of input in statement list"},
      {Structured, "choose with one alternative",
       "program {\n  choose { x := 1; }\n  out(x);\n}\n", 3, 3,
       "'choose' needs at least two alternatives ('or { ... }')"},
      {Structured, "wrong leading word", "graph {\n}\n", 1, 1,
       "expected 'program', found 'graph'"},
      {Structured, "input after the program", "program {\n  x := 1;\n} extra\n",
       3, 3, "expected end of input after '}', found identifier"},
      {Structured, "decomposition name in source",
       "program {\n  x := 1;\n  t$0 := x + 1;\n}\n", 3, 3,
       "'t$0': '$' is reserved for decomposition variables"},
      {Structured, "missing semicolon", "program {\n  x := 1\n}\n", 3, 1,
       "expected ';', found '}'"},
      {Structured, "missing until",
       "program {\n  repeat { x := 1; } (x > 0);\n}\n", 2, 22,
       "expected 'until', found '('"},
      {Structured, "missing relop", "program {\n  if (x) { y := 1; }\n}\n", 2,
       8, "expected relational operator, found ')'"},
      {Structured, "missing close paren", "program {\n  x := (a + b;\n}\n", 2,
       14, "expected ')', found ';'"},
      {Structured, "missing cond paren",
       "program {\n  while a < b { x := 1; }\n}\n", 2, 9,
       "expected '(', found identifier"},
      {Structured, "missing body brace",
       "program {\n  if (a < b) x := 1;\n}\n", 2, 14,
       "expected '{', found identifier"},
      {Structured, "unary minus on paren", "program {\n  x := -(a);\n}\n", 2,
       9, "expected number after unary '-'"},
      // Dispatch on the first word.
      {Program, "dispatch to cfg on empty input", "", 1, 1,
       "expected 'graph', found end of input"},
      {Program, "dispatch to cfg on lexical error", "! program", 1, 1,
       "stray '!'"},
      {Program, "dispatch to structured with lexical error",
       "program {\n  x := 1 ! 2;\n}\n", 2, 10, "stray '!'"},
      {Program, "dispatch to cfg on wrong word", "programs {\n}\n", 1, 1,
       "expected 'graph', found 'programs'"},
      {Program, "dispatch to structured", "program {\n  x := ;\n}\n", 2, 8,
       "expected variable name, found ';'"},
  };
  return Cases;
}

void expectDiag(const ParseResult &R, unsigned Line, unsigned Col,
                const std::string &Message, const std::string &Ctx) {
  ASSERT_FALSE(R.ok()) << Ctx;
  EXPECT_EQ(R.Error, "line " + std::to_string(Line) + ":" +
                         std::to_string(Col) + ": " + Message)
      << Ctx;
  EXPECT_EQ(R.Diag.Component, "parse") << Ctx;
  EXPECT_EQ(R.Diag.Message, Message) << Ctx;
  EXPECT_EQ(R.Diag.Line, Line) << Ctx;
  EXPECT_EQ(R.Diag.Col, Col) << Ctx;
}

const char *const Keywords[] = {
    "graph", "program", "temp",  "goto",   "halt",   "br",
    "if",    "then",    "else",  "while",  "out",    "skip",
    "choose", "or",     "repeat", "until", "synthetic"};

} // namespace

TEST(FrontendGolden, EveryDiagnosticVerbatim) {
  for (const DiagCase &C : diagCases())
    expectDiag(parseAs(C.S, C.Src), C.Line, C.Col, C.Message, C.Name);
}

TEST(FrontendGolden, EveryKeywordIsRefusedAsAVariable) {
  for (const char *K : Keywords)
    expectDiag(parseCfg(std::string("graph {\nb0:\n  x := ") + K +
                        "\n  halt\n}\n"),
               3, 8, std::string("keyword '") + K + "' cannot name a variable",
               K);
}

TEST(FrontendGolden, NearKeywordsAreVariables) {
  const char *const Names[] = {"outx",  "iff",     "br2",  "gotoo", "elsewhere",
                               "whiles", "synthetic_", "programs", "tem",
                               "_if",   "If",      "OUT",  "o",     "h",
                               "graphs", "chooser", "r", "untill"};
  for (const char *N : Names) {
    ParseResult R = parseCfg(std::string("graph {\nb0:\n  ") + N + " := " + N +
                             " + 1\n  out(" + N + ")\n  halt\n}\n");
    ASSERT_TRUE(R.ok()) << N << ": " << R.Error;
    VarId V = R.Graph.Vars.lookup(N);
    ASSERT_TRUE(isValid(V)) << N;
    EXPECT_EQ(index(V), 0u) << N;
    EXPECT_EQ(R.Graph.Vars.size(), 1u) << N;
  }
}

namespace {

/// Print -> parse -> print: the text and the variable table (names,
/// numbering, temp-ness and each temporary's pattern) are stable.
void expectStableRoundTrip(const FlowGraph &G, const std::string &Ctx) {
  ParseResult P1 = parseCfg(printGraph(G));
  ASSERT_TRUE(P1.ok()) << Ctx << ": " << P1.Error;
  std::string Text = printGraph(P1.Graph);
  ParseResult P2 = parseCfg(Text);
  ASSERT_TRUE(P2.ok()) << Ctx << ": " << P2.Error;
  EXPECT_EQ(printGraph(P2.Graph), Text) << Ctx;
  const VarTable &A = P1.Graph.Vars, &B = P2.Graph.Vars;
  ASSERT_EQ(A.size(), B.size()) << Ctx;
  for (uint32_t V = 0; V < A.size(); ++V) {
    VarId Id = makeVarId(V);
    EXPECT_EQ(A.name(Id), B.name(Id)) << Ctx;
    EXPECT_EQ(A.isTemp(Id), B.isTemp(Id)) << Ctx << " " << A.name(Id);
    EXPECT_EQ(A.tempFor(Id), B.tempFor(Id)) << Ctx << " " << A.name(Id);
    EXPECT_EQ(B.lookup(A.name(Id)), Id) << Ctx;
  }
}

void checkPrinter(const FlowGraph &G, const std::string &Ctx) {
  ASSERT_EQ(printGraph(G), printGraphReference(G)) << Ctx;
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (const Instr &I : G.block(B).Instrs)
      ASSERT_EQ(printInstr(I, G.Vars), printInstrReference(I, G.Vars)) << Ctx;
  expectStableRoundTrip(G, Ctx);
}

/// \p G, then its `uniform` and `lcm,cp,pde` outputs, which carry
/// temporaries and synthetic blocks.
void checkWithOutputs(const FlowGraph &G, const std::string &Ctx) {
  checkPrinter(G, Ctx);
  for (const char *Spec : {"uniform", "lcm,cp,pde"}) {
    PipelineResult R = runPipeline(G, Spec);
    ASSERT_TRUE(R.ok()) << Ctx << " " << Spec << ": " << R.Error;
    checkPrinter(R.Graph, Ctx + " " + Spec);
  }
}

} // namespace

TEST(FrontendGolden, PrinterMatchesStreamReference) {
  for (uint64_t Seed = 0; Seed < 25 && !HasFatalFailure(); ++Seed)
    checkWithOutputs(generateStructuredProgram(Seed),
                     "structured seed " + std::to_string(Seed));
  for (uint64_t Seed = 0; Seed < 25 && !HasFatalFailure(); ++Seed)
    checkWithOutputs(generateIrreducibleCfg(Seed),
                     "irreducible seed " + std::to_string(Seed));
  unsigned Seen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(AM_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".am" || HasFatalFailure())
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Src;
    Src << In.rdbuf();
    checkWithOutputs(parse(Src.str()), Entry.path().filename().string());
    ++Seen;
  }
  EXPECT_GE(Seen, 5u);
}

TEST(FrontendGolden, PrinterEdgeCases) {
  // One block that is both start and end.
  FlowGraph Single = parse("graph {\nonly:\n  x := -7 * y\n  out(x)\n"
                           "  halt\n}\n");
  checkPrinter(Single, "single block");
  EXPECT_NE(printGraph(Single).find("b0:    # start, end\n"),
            std::string::npos);
  // A nondeterministic branch with three targets, a synthetic block, a
  // skip, an empty out and extreme constants.
  FlowGraph Br = parse("graph {\ntemp h1\ns:\n  h1 := a + b\n"
                       "  x := 9223372036854775807\n  y := -9223372036854775807\n"
                       "  br p q r\np:\n  synthetic\n  skip\n  goto e\n"
                       "q:\n  out()\n  goto e\nr:\n  out(h1, x, y)\n"
                       "  goto e\ne:\n  halt\n}\n");
  checkPrinter(Br, "three-way br");
  EXPECT_NE(printGraph(Br).find("  br b1 b2 b3\n"), std::string::npos);
}
