//===- ir/Printer.h - Textual and DOT rendering of graphs ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders flow graphs in the explicit CFG syntax understood by the parser
/// (so print -> parse round-trips) and as Graphviz DOT for visual
/// inspection of the paper's figures.
///
/// The CFG text is appended into one string: terms and instructions go
/// through appendTerm/appendInstr, numbers and block names through
/// std::to_chars, with no stream and no per-instruction temporary.
/// printTerm/printInstr wrap the same helpers for remarks and reports.
///
//===----------------------------------------------------------------------===//

#ifndef AM_IR_PRINTER_H
#define AM_IR_PRINTER_H

#include "ir/FlowGraph.h"

#include <functional>
#include <string>

namespace am {

/// Appends a single term to \p Out, e.g. "a + b" or "7".
void appendTerm(std::string &Out, const Term &T, const VarTable &Vars);

/// Appends a single instruction to \p Out, e.g. "x := a + b" or
/// "out(i, x)".  Branch conditions render as "if a + b > c" (targets are
/// block syntax).
void appendInstr(std::string &Out, const Instr &I, const VarTable &Vars);

/// appendTerm into a fresh string.
std::string printTerm(const Term &T, const VarTable &Vars);

/// appendInstr into a fresh string.
std::string printInstr(const Instr &I, const VarTable &Vars);

/// Renders the whole graph in the parser's CFG syntax:
///
///   graph {
///   temp h1, h2
///   b0:
///     y := c + d
///     goto b1
///   b1:
///     if x + z > y + i then b2 else b3
///   ...
///   b3:
///     out(i, x, y)
///     halt
///   }
///
/// Blocks are named b<index>.  Multi-successor blocks without a condition
/// print as "br b2 b3" (nondeterministic branch).
std::string printGraph(const FlowGraph &G);

/// Renders Graphviz DOT with one record node per block.
std::string printDot(const FlowGraph &G, const std::string &Title = "G");

/// As above, with a per-instruction annotation: \p Note is invoked for
/// every instruction and its (possibly empty) return value is rendered
/// after the instruction text, separated by two spaces.  Used by `amopt
/// --dot --remarks` to annotate instructions with their remark history.
std::string printDot(const FlowGraph &G, const std::string &Title,
                     const std::function<std::string(const Instr &)> &Note);

} // namespace am

#endif // AM_IR_PRINTER_H
