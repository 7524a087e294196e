//===- ir/Printer.cpp - Textual and DOT rendering ---------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "support/BitVector.h"

#include <charconv>
#include <sstream>

using namespace am;

namespace {

void appendInt(std::string &Out, int64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

void appendOperand(std::string &Out, const Operand &O, const VarTable &Vars) {
  if (O.isVar())
    Out += Vars.name(O.Var);
  else
    appendInt(Out, O.Const);
}

void appendBlockName(std::string &Out, BlockId B) {
  Out += 'b';
  appendInt(Out, B);
}

} // namespace

void am::appendTerm(std::string &Out, const Term &T, const VarTable &Vars) {
  appendOperand(Out, T.A, Vars);
  if (T.isNonTrivial()) {
    Out += ' ';
    Out += spelling(T.Op);
    Out += ' ';
    appendOperand(Out, T.B, Vars);
  }
}

void am::appendInstr(std::string &Out, const Instr &I, const VarTable &Vars) {
  switch (I.K) {
  case Instr::Kind::Skip:
    Out += "skip";
    return;
  case Instr::Kind::Assign:
    Out += Vars.name(I.Lhs);
    Out += " := ";
    appendTerm(Out, I.Rhs, Vars);
    return;
  case Instr::Kind::Out:
    Out += "out(";
    for (size_t Idx = 0; Idx < I.OutVars.size(); ++Idx) {
      if (Idx)
        Out += ", ";
      Out += Vars.name(I.OutVars[Idx]);
    }
    Out += ')';
    return;
  case Instr::Kind::Branch:
    Out += "if ";
    appendTerm(Out, I.CondL, Vars);
    Out += ' ';
    Out += spelling(I.Rel);
    Out += ' ';
    appendTerm(Out, I.CondR, Vars);
    return;
  }
  Out += "<invalid>";
}

std::string am::printTerm(const Term &T, const VarTable &Vars) {
  std::string S;
  appendTerm(S, T, Vars);
  return S;
}

std::string am::printInstr(const Instr &I, const VarTable &Vars) {
  std::string S;
  appendInstr(S, I, Vars);
  return S;
}

std::string am::printGraph(const FlowGraph &G) {
  std::string Out;
  // About 16 bytes per instruction and 16 per block label and terminator.
  Out.reserve(16 * (G.numInstrs() + 2 * G.numBlocks()) + 16);
  Out += "graph {\n";

  // Declare temporaries so a re-parse can restore their temp-ness.  Only
  // temporaries that still occur are declared (the flush may have removed
  // every trace of some), in first-occurrence order — the order in which
  // a re-parse interns them — so print -> parse round-trips exactly.
  BitVector Seen(G.Vars.size());
  bool AnyTemp = false;
  auto NoteVar = [&](VarId V) {
    if (Seen.test(index(V)))
      return;
    Seen.set(index(V));
    if (!G.Vars.isTemp(V))
      return;
    Out += AnyTemp ? ", " : "temp ";
    Out += G.Vars.name(V);
    AnyTemp = true;
  };
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (const Instr &I : G.block(B).Instrs) {
      if (I.isAssign())
        NoteVar(I.Lhs);
      I.forEachUsedVar(NoteVar);
    }
  }
  if (AnyTemp)
    Out += '\n';

  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const BasicBlock &BB = G.block(B);
    appendBlockName(Out, B);
    Out += ':';
    if (B == G.start() && B == G.end())
      Out += "    # start, end";
    else if (B == G.start())
      Out += "    # start";
    else if (B == G.end())
      Out += "    # end";
    Out += '\n';
    if (BB.Synthetic)
      Out += "  synthetic\n";

    const Instr *Br = BB.branchInstr();
    for (const Instr &I : BB.Instrs) {
      if (&I == Br)
        continue;
      Out += "  ";
      appendInstr(Out, I, G.Vars);
      Out += '\n';
    }

    if (Br != nullptr) {
      assert(BB.Succs.size() == 2 && "branch blocks have two successors");
      Out += "  ";
      appendInstr(Out, *Br, G.Vars);
      Out += " then ";
      appendBlockName(Out, BB.Succs[0]);
      Out += " else ";
      appendBlockName(Out, BB.Succs[1]);
      Out += '\n';
    } else if (BB.Succs.empty()) {
      Out += "  halt\n";
    } else if (BB.Succs.size() == 1) {
      Out += "  goto ";
      appendBlockName(Out, BB.Succs[0]);
      Out += '\n';
    } else {
      Out += "  br";
      for (BlockId S : BB.Succs) {
        Out += ' ';
        appendBlockName(Out, S);
      }
      Out += '\n';
    }
  }
  Out += "}\n";
  // The caller may keep the text for long: no slack capacity.
  Out.shrink_to_fit();
  return Out;
}

std::string am::printDot(const FlowGraph &G, const std::string &Title) {
  return printDot(G, Title, nullptr);
}

std::string
am::printDot(const FlowGraph &G, const std::string &Title,
             const std::function<std::string(const Instr &)> &Note) {
  std::ostringstream OS;
  OS << "digraph \"" << Title << "\" {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const BasicBlock &BB = G.block(B);
    OS << "  b" << B << " [label=\"b" << B;
    if (B == G.start())
      OS << " (start)";
    if (B == G.end())
      OS << " (end)";
    OS << "\\l";
    for (const Instr &I : BB.Instrs) {
      std::string Line = printInstr(I, G.Vars);
      if (Note) {
        std::string N = Note(I);
        if (!N.empty())
          Line += "  " + N;
      }
      // Escape double quotes for DOT.
      std::string Escaped;
      for (char C : Line) {
        if (C == '"')
          Escaped += "\\\"";
        else
          Escaped += C;
      }
      OS << Escaped << "\\l";
    }
    OS << "\"];\n";
  }
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (BlockId S : G.block(B).Succs)
      OS << "  b" << B << " -> b" << S << ";\n";
  OS << "}\n";
  return OS.str();
}
