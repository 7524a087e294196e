//===- transform/Initialization.cpp - Phase 1 implementation ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/Initialization.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "support/Telemetry.h"
#include "transform/AssignmentMotion.h"

using namespace am;

unsigned am::runInitializationPhase(FlowGraph &G) {
  AM_SPAN(Span, "init");
  AM_REMARK_PASS_SCOPE("init");
  if (AM_REMARKS_ENABLED())
    ensureInstrIds(G);
  unsigned NumDecomposed = 0;
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    std::vector<Instr> NewInstrs;
    auto &Instrs = G.block(B).Instrs;
    NewInstrs.reserve(Instrs.size() * 2);
    for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
      Instr &I = Instrs[Idx];
      if (I.isAssign() && I.Rhs.isNonTrivial()) {
        ExprId E = G.Exprs.intern(I.Rhs);
        VarId H = G.Exprs.temporary(E, G.Vars);
        if (I.Lhs == H) {
          // Already an initialization h_t := t.
          NewInstrs.push_back(I);
          continue;
        }
        NewInstrs.push_back(Instr::assign(H, I.Rhs));
        NewInstrs.push_back(Instr::assign(I.Lhs, Term::var(H)));
        if (AM_REMARKS_ENABLED()) {
          Instr &Init = NewInstrs[NewInstrs.size() - 2];
          Instr &Copy = NewInstrs.back();
          Init.Id = remarks::Sink::get().freshId();
          Copy.Id = remarks::Sink::get().freshId();
          remarks::Remark R =
              describe(remarks::Kind::Decompose, G, B, Idx, I, 0);
          R.Terminal = true; // the composite assignment leaves the program
          R.NewIds = {Init.Id, Copy.Id};
          R.fact("non_trivial_rhs", "1")
              .fact("temp", G.Vars.name(H))
              .fact("init", printInstr(Init, G.Vars))
              .fact("copy", printInstr(Copy, G.Vars));
          remarks::Sink::get().add(std::move(R));
        }
        ++NumDecomposed;
        continue;
      }
      if (I.isBranch()) {
        Instr Branch = I;
        auto DecomposeSide = [&](Term &Side, const char *Which) {
          if (!Side.isNonTrivial())
            return;
          ExprId E = G.Exprs.intern(Side);
          VarId H = G.Exprs.temporary(E, G.Vars);
          NewInstrs.push_back(Instr::assign(H, Side));
          if (AM_REMARKS_ENABLED()) {
            Instr &Init = NewInstrs.back();
            Init.Id = remarks::Sink::get().freshId();
            // The branch itself survives (with the operand rewritten).
            remarks::Remark R =
                describe(remarks::Kind::Decompose, G, B, Idx, I, 0);
            R.Var = G.Vars.name(H);
            R.NewIds = {Init.Id};
            R.fact("non_trivial_operand", Which)
                .fact("temp", G.Vars.name(H))
                .fact("init", printInstr(Init, G.Vars));
            remarks::Sink::get().add(std::move(R));
          }
          Side = Term::var(H);
          ++NumDecomposed;
        };
        DecomposeSide(Branch.CondL, "left");
        DecomposeSide(Branch.CondR, "right");
        NewInstrs.push_back(std::move(Branch));
        continue;
      }
      NewInstrs.push_back(I);
    }
    if (NewInstrs != Instrs) {
      Instrs = std::move(NewInstrs);
      G.touchBlock(B);
    }
  }
  return NumDecomposed;
}
