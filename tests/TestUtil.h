//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#ifndef AM_TESTS_TESTUTIL_H
#define AM_TESTS_TESTUTIL_H

#include "dfa/Dataflow.h"
#include "gen/RandomProgram.h"
#include "interp/Interpreter.h"
#include "ir/FlowGraph.h"
#include "ir/Patterns.h"
#include "ir/Printer.h"
#include "parser/Parser.h"
#include "support/BitVector.h"

#include <functional>
#include <sstream>

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

//===----------------------------------------------------------------------===//
// The round-robin dense oracle
//===----------------------------------------------------------------------===//

/// One problem in dense form: gen and kill write full-width vectors,
/// computed without the production tables' cached masks or occurrence
/// indices.
struct DenseProblem {
  Direction Dir;
  Meet M;
  size_t Bits;
  std::function<void(const Instr &, BitVector &)> Gen;
  std::function<void(const Instr &, BitVector &)> Kill;
};

struct DenseSolution {
  std::vector<BitVector> Entry, Exit;
};

/// Full-width gen and kill of instruction \p Idx of block \p B.
using DenseEffect = std::function<void(BlockId B, size_t Idx, const Instr &,
                                       BitVector &Gen, BitVector &Kill)>;

/// The reference solver: block transfers composed from dense
/// per-instruction gen/kill, then round-robin sweeps in (reverse-graph)
/// reverse postorder until no block changes.  Independent of the
/// production engine's scheduling, packing and caches.
inline DenseSolution denseSolve(const FlowGraph &G, Direction Dir, Meet M,
                                size_t Bits, const BitVector &Boundary,
                                const DenseEffect &Effect) {
  bool Forward = Dir == Direction::Forward;
  bool All = M == Meet::All;
  size_t N = G.numBlocks();
  std::vector<BitVector> TGen(N, BitVector(Bits)), TKill(N, BitVector(Bits));
  BitVector Gen, Kill;
  for (BlockId B = 0; B < N; ++B) {
    const auto &Instrs = G.block(B).Instrs;
    for (size_t Step = 0; Step < Instrs.size(); ++Step) {
      size_t Idx = Forward ? Step : Instrs.size() - 1 - Step;
      Effect(B, Idx, Instrs[Idx], Gen, Kill);
      TGen[B].andNot(Kill);
      TGen[B] |= Gen;
      TKill[B] |= Kill;
    }
  }
  std::vector<BitVector> In(N, BitVector(Bits, All)),
      Out(N, BitVector(Bits, All));
  BlockId BoundaryBlock = Forward ? G.start() : G.end();
  std::vector<BlockId> Order =
      Forward ? G.reversePostorder() : G.reverseGraphReversePostorder();
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (BlockId B : Order) {
      BitVector NewIn(Bits, All);
      const auto &Edges = Forward ? G.block(B).Preds : G.block(B).Succs;
      if (B == BoundaryBlock) {
        NewIn = Boundary;
      } else if (!Edges.empty()) {
        NewIn = Out[Edges[0]];
        for (size_t E = 1; E < Edges.size(); ++E) {
          if (All)
            NewIn &= Out[Edges[E]];
          else
            NewIn |= Out[Edges[E]];
        }
      }
      BitVector NewOut = NewIn;
      NewOut.andNot(TKill[B]);
      NewOut |= TGen[B];
      if (NewIn != In[B] || NewOut != Out[B]) {
        In[B] = NewIn;
        Out[B] = NewOut;
        Changed = true;
      }
    }
  }
  return Forward ? DenseSolution{In, Out} : DenseSolution{Out, In};
}

/// The oracle over a dense problem; boundary all-false.
inline DenseSolution denseSolve(const FlowGraph &G, const DenseProblem &P) {
  return denseSolve(G, P.Dir, P.M, P.Bits, BitVector(P.Bits),
                    [&P](BlockId, size_t, const Instr &I, BitVector &Gen,
                         BitVector &Kill) {
                      P.Gen(I, Gen);
                      P.Kill(I, Kill);
                    });
}

/// The oracle over a production problem: each instruction's LocalEffect
/// expanded into full-width gen and kill vectors.
inline DenseSolution denseSolve(const FlowGraph &G, const DataflowProblem &P) {
  size_t Bits = P.numBits();
  BitVector Boundary;
  P.boundary(Boundary);
  LocalEffect E;
  return denseSolve(G, P.direction(), P.meet(), Bits, Boundary,
                    [&](BlockId B, size_t Idx, const Instr &I, BitVector &Gen,
                        BitVector &Kill) {
                      E.clear();
                      P.effect(B, Idx, I, E);
                      Gen.clearAndResize(Bits);
                      Kill.clearAndResize(Bits);
                      BitVector Scratch(Bits);
                      E.apply(Scratch, &Kill);
                      E.apply(Gen);
                    });
}

/// Scans the pattern list for \p I's occurrence (no hash, no cache).
inline size_t denseOccurrence(const AssignPatternTable &Pats, const Instr &I) {
  if (!I.isAssign() || I.Rhs.isVarAtom(I.Lhs))
    return AssignPatternTable::npos;
  for (size_t P = 0; P < Pats.size(); ++P)
    if (Pats.pattern(P).Lhs == I.Lhs && Pats.pattern(P).Rhs == I.Rhs)
      return P;
  return AssignPatternTable::npos;
}

/// Table 2's not-ASS-TRANSP, from the definition.
inline void denseKilled(const AssignPatternTable &Pats, const Instr &I,
                        BitVector &Out) {
  Out = BitVector(Pats.size());
  VarId Def = I.definedVar();
  for (size_t P = 0; isValid(Def) && P < Pats.size(); ++P)
    if (Pats.pattern(P).Lhs == Def || Pats.pattern(P).Rhs.usesVar(Def))
      Out.set(P);
}

/// Definition 3.2's blocking, from the definition.
inline void denseBlocked(const AssignPatternTable &Pats, const Instr &I,
                         BitVector &Out) {
  denseKilled(Pats, I, Out);
  for (size_t P = 0; P < Pats.size(); ++P)
    if (I.usesVar(Pats.pattern(P).Lhs))
      Out.set(P);
}

/// \p I's own occurrence bit; with \p EligibleOnly, only for a pattern
/// Table 2 ranges over (its left-hand side is no operand).
inline void denseOccurrenceBit(const AssignPatternTable &Pats, const Instr &I,
                               BitVector &Out, bool EligibleOnly) {
  Out = BitVector(Pats.size());
  size_t P = denseOccurrence(Pats, I);
  if (P == AssignPatternTable::npos)
    return;
  if (EligibleOnly && Pats.pattern(P).Rhs.usesVar(Pats.pattern(P).Lhs))
    return;
  Out.set(P);
}

/// Definition 3.2 as a problem: occurrences generate, blockers kill.
/// Backward it is Table 1's hoistability, forward PDE's delayability.
inline DenseProblem denseBlocking(const AssignPatternTable &Pats,
                                  Direction Dir) {
  return {Dir, Meet::All, Pats.size(),
          [&Pats](const Instr &I, BitVector &O) {
            denseOccurrenceBit(Pats, I, O, /*EligibleOnly=*/false);
          },
          [&Pats](const Instr &I, BitVector &O) { denseBlocked(Pats, I, O); }};
}

/// Liveness over \p NumVars variables: uses generate, definitions kill.
inline DenseProblem denseLiveness(size_t NumVars) {
  return {Direction::Backward, Meet::Any, NumVars,
          [NumVars](const Instr &I, BitVector &O) {
            O = BitVector(NumVars);
            I.forEachUsedVar([&](VarId V) { O.set(index(V)); });
          },
          [NumVars](const Instr &I, BitVector &O) {
            O = BitVector(NumVars);
            if (isValid(I.definedVar()))
              O.set(index(I.definedVar()));
          }};
}

/// A synthetic problem of any width: instruction Idx of block B gens and
/// kills bits picked by a hash of (B, Idx, \p Salt), and every eighth one
/// also kills a mask striped across all slices — so every slice of every
/// group carries facts, whatever the width.  Probes that differ only in
/// \p Salt are different problems of the same width.
class WidthProbe : public DataflowProblem {
public:
  WidthProbe(size_t Bits, Direction Dir, Meet M, uint64_t Salt = 0)
      : Bits(Bits), Dir(Dir), M(M), Salt(Salt), Stripes(Bits) {
    for (size_t Bit = 0; Bit < Bits; Bit += 3)
      Stripes.set(Bit);
  }
  Direction direction() const override { return Dir; }
  Meet meet() const override { return M; }
  size_t numBits() const override { return Bits; }
  void effect(BlockId B, size_t Idx, const Instr &,
              LocalEffect &E) const override {
    uint64_t H = (B + 1) * 0x9E3779B97F4A7C15ull ^
                 (Idx + 1) * 0xBF58476D1CE4E5B9ull ^
                 Salt * 0x94D049BB133111EBull;
    H ^= H >> 31;
    E.gen(H % Bits);
    E.gen((H >> 17) % Bits);
    E.kill((H >> 34) % Bits);
    if ((H >> 51) % 8 == 0)
      E.killMask(&Stripes);
  }

private:
  size_t Bits;
  Direction Dir;
  Meet M;
  uint64_t Salt;
  BitVector Stripes;
};

/// Block-boundary agreement of a production result with the oracle.
inline void expectMatchesDense(const FlowGraph &G, const DataflowResult &R,
                               const DenseSolution &S,
                               const std::string &Ctx) {
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    ASSERT_EQ(R.entry(B), S.Entry[B]) << Ctx << ": entry of b" << B;
    ASSERT_EQ(R.exit(B), S.Exit[B]) << Ctx << ": exit of b" << B;
  }
}

//===----------------------------------------------------------------------===//
// Reference implementations the production code is checked against
//===----------------------------------------------------------------------===//

/// LCM's delay facts, per block and per successor edge.
struct DenseLater {
  std::vector<std::vector<BitVector>> Later; // per block, per succ edge
  std::vector<BitVector> LaterIn;
};

/// LATER / LATERIN by round-robin sweeps in reverse postorder from
/// all-true, given ANTIN(s), ANTLOC per block and EARLIEST per edge
/// (EarliestOf(B, SuccIdx)).  The virtual entry edge into s has
/// EARLIEST = ANTIN(s).
inline DenseLater
denseLater(const FlowGraph &G, size_t Bits, const BitVector &AntInStart,
           const std::vector<BitVector> &Antloc,
           const std::function<BitVector(BlockId, size_t)> &EarliestOf) {
  DenseLater A;
  BitVector LaterVirtual = AntInStart;
  A.LaterIn.assign(G.numBlocks(), BitVector(Bits, true));
  A.Later.resize(G.numBlocks());
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    A.Later[B].assign(G.block(B).Succs.size(), BitVector(Bits, true));

  // In-edge lists: block -> (pred, pred succ index).
  std::vector<std::vector<std::pair<BlockId, size_t>>> InEdges(G.numBlocks());
  for (BlockId B = 0; B < G.numBlocks(); ++B)
    for (size_t SuccIdx = 0; SuccIdx < G.block(B).Succs.size(); ++SuccIdx)
      InEdges[G.block(B).Succs[SuccIdx]].emplace_back(B, SuccIdx);

  std::vector<BlockId> Order = G.reversePostorder();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : Order) {
      // LATERIN(B) = meet over incoming LATER edges.
      BitVector NewIn(Bits, true);
      if (B == G.start()) {
        NewIn = LaterVirtual;
      } else if (InEdges[B].empty()) {
        NewIn = BitVector(Bits); // unreachable join: be conservative
      } else {
        NewIn = A.Later[InEdges[B][0].first][InEdges[B][0].second];
        for (size_t EdgeIdx = 1; EdgeIdx < InEdges[B].size(); ++EdgeIdx)
          NewIn &= A.Later[InEdges[B][EdgeIdx].first][InEdges[B][EdgeIdx].second];
      }
      if (NewIn != A.LaterIn[B]) {
        A.LaterIn[B] = NewIn;
        Changed = true;
      }
      // LATER(B, succ) = EARLIEST(B, succ) | (LATERIN(B) & ¬ANTLOC(B)).
      BitVector Delayable = A.LaterIn[B];
      Delayable.andNot(Antloc[B]);
      for (size_t SuccIdx = 0; SuccIdx < G.block(B).Succs.size(); ++SuccIdx) {
        BitVector NewLater = EarliestOf(B, SuccIdx);
        NewLater |= Delayable;
        if (NewLater != A.Later[B][SuccIdx]) {
          A.Later[B][SuccIdx] = NewLater;
          Changed = true;
        }
      }
    }
  }
  return A;
}

/// simplified() as a rebuild: skips dropped, then every kept block
/// re-added to a fresh graph in order and every kept edge re-added with
/// addEdge, resolving chains of empty synthetic pass-through blocks by
/// walking them.
inline FlowGraph rebuildSimplified(const FlowGraph &G) {
  FlowGraph Work = G;

  // `x := x` is identified with skip (Section 2); drop all skips.
  for (BlockId B = 0; B < Work.numBlocks(); ++B) {
    auto &Instrs = Work.block(B).Instrs;
    std::erase_if(Instrs, [](const Instr &I) {
      return I.isSkip() || (I.isAssign() && I.Rhs.isVarAtom(I.Lhs));
    });
  }

  // Decide which empty synthetic pass-through blocks to splice out.
  std::vector<bool> Dropped(Work.numBlocks(), false);
  for (BlockId B = 0; B < Work.numBlocks(); ++B) {
    const BasicBlock &BB = Work.block(B);
    Dropped[B] = BB.Synthetic && BB.Instrs.empty() && BB.Succs.size() == 1 &&
                 B != Work.start() && B != Work.end() && BB.Succs[0] != B;
  }

  // Resolve a block through chains of dropped blocks; guard against cycles
  // of dropped blocks by keeping the block where the walk would revisit.
  auto Resolve = [&](BlockId B) {
    std::vector<bool> Seen(Work.numBlocks(), false);
    while (Dropped[B] && !Seen[B]) {
      Seen[B] = true;
      B = Work.block(B).Succs[0];
    }
    return B;
  };

  // Rebuild with compacted ids.
  FlowGraph Out;
  Out.Vars = Work.Vars;
  Out.Exprs = Work.Exprs;
  std::vector<BlockId> NewId(Work.numBlocks(), InvalidBlock);
  for (BlockId B = 0; B < Work.numBlocks(); ++B)
    if (!Dropped[B])
      NewId[B] = Out.addBlock();
  for (BlockId B = 0; B < Work.numBlocks(); ++B) {
    if (Dropped[B])
      continue;
    BasicBlock &NewBB = Out.block(NewId[B]);
    NewBB.Instrs = Work.block(B).Instrs;
    NewBB.Synthetic = Work.block(B).Synthetic;
    Out.touchBlock(NewId[B]);
    for (BlockId S : Work.block(B).Succs)
      Out.addEdge(NewId[B], NewId[Resolve(S)]);
  }
  Out.setStart(NewId[Work.start()]);
  Out.setEnd(NewId[Work.end()]);
  return Out;
}

/// The instruction printer as it was before printing moved onto one
/// appended buffer: a fresh string per operand, term and instruction.
inline std::string printOperandReference(const Operand &O,
                                         const VarTable &Vars) {
  if (O.isVar())
    return Vars.name(O.Var);
  return std::to_string(O.Const);
}

inline std::string printTermReference(const Term &T, const VarTable &Vars) {
  std::string S = printOperandReference(T.A, Vars);
  if (T.isNonTrivial()) {
    S += ' ';
    S += spelling(T.Op);
    S += ' ';
    S += printOperandReference(T.B, Vars);
  }
  return S;
}

inline std::string printInstrReference(const Instr &I, const VarTable &Vars) {
  switch (I.K) {
  case Instr::Kind::Skip:
    return "skip";
  case Instr::Kind::Assign:
    return Vars.name(I.Lhs) + " := " + printTermReference(I.Rhs, Vars);
  case Instr::Kind::Out: {
    std::string S = "out(";
    for (size_t Idx = 0; Idx < I.OutVars.size(); ++Idx) {
      if (Idx)
        S += ", ";
      S += Vars.name(I.OutVars[Idx]);
    }
    return S + ")";
  }
  case Instr::Kind::Branch:
    return "if " + printTermReference(I.CondL, Vars) + " " +
           spelling(I.Rel) + " " + printTermReference(I.CondR, Vars);
  }
  return "<invalid>";
}

/// printGraph as it was before it appended into one buffer: an
/// ostringstream and one temporary string per instruction.  The printer
/// must stay byte-identical to it.
inline std::string printGraphReference(const FlowGraph &G) {
  std::ostringstream OS;
  OS << "graph {\n";

  // Declare temporaries so a re-parse can restore their temp-ness.  Only
  // temporaries that still occur are declared (the flush may have removed
  // every trace of some), in first-occurrence order — the order in which
  // a re-parse interns them — so print -> parse round-trips exactly.
  BitVector Seen(G.Vars.size());
  std::string Temps;
  auto NoteVar = [&](VarId V) {
    if (Seen.test(index(V)))
      return;
    Seen.set(index(V));
    if (!G.Vars.isTemp(V))
      return;
    if (!Temps.empty())
      Temps += ", ";
    Temps += G.Vars.name(V);
  };
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    for (const Instr &I : G.block(B).Instrs) {
      if (I.isAssign())
        NoteVar(I.Lhs);
      I.forEachUsedVar(NoteVar);
    }
  }
  if (!Temps.empty())
    OS << "temp " << Temps << "\n";

  auto BlockName = [](BlockId B) { return "b" + std::to_string(B); };

  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const BasicBlock &BB = G.block(B);
    OS << BlockName(B) << ":";
    if (B == G.start() && B == G.end())
      OS << "    # start, end";
    else if (B == G.start())
      OS << "    # start";
    else if (B == G.end())
      OS << "    # end";
    OS << "\n";
    if (BB.Synthetic)
      OS << "  synthetic\n";

    const Instr *Br = BB.branchInstr();
    for (const Instr &I : BB.Instrs) {
      if (&I == Br)
        continue;
      OS << "  " << printInstrReference(I, G.Vars) << "\n";
    }

    if (Br != nullptr) {
      assert(BB.Succs.size() == 2 && "branch blocks have two successors");
      OS << "  " << printInstrReference(*Br, G.Vars) << " then "
         << BlockName(BB.Succs[0]) << " else " << BlockName(BB.Succs[1])
         << "\n";
    } else if (BB.Succs.empty()) {
      OS << "  halt\n";
    } else if (BB.Succs.size() == 1) {
      OS << "  goto " << BlockName(BB.Succs[0]) << "\n";
    } else {
      OS << "  br";
      for (BlockId S : BB.Succs)
        OS << " " << BlockName(S);
      OS << "\n";
    }
  }
  OS << "}\n";
  return OS.str();
}

} // namespace am::test

#endif // AM_TESTS_TESTUTIL_H
