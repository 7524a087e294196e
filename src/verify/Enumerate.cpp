//===- verify/Enumerate.cpp - Bounded universe enumeration -----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "verify/Enumerate.h"
#include "analysis/PaperAnalyses.h"
#include "ir/Patterns.h"
#include "ir/Printer.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "transform/AssignmentHoisting.h"
#include "transform/FinalFlush.h"
#include "transform/Initialization.h"
#include "transform/Normalize.h"

#include <deque>
#include <unordered_set>

using namespace am;

namespace {

/// All single-occurrence elimination successors of \p G.
void eliminationSuccessors(const FlowGraph &G,
                           std::vector<FlowGraph> &Out) {
  AssignPatternTable Pats;
  Pats.build(G);
  if (Pats.size() == 0)
    return;
  RedundancyAnalysis Redundancy = RedundancyAnalysis::run(G, Pats);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    if (G.block(B).Instrs.empty())
      continue;
    DataflowResult::InstrFacts Facts = Redundancy.facts(B);
    for (size_t Idx = 0; Idx < G.block(B).Instrs.size(); ++Idx) {
      size_t Pat = Pats.occurrence(G.block(B).Instrs[Idx]);
      if (Pat == AssignPatternTable::npos || !Facts.Before[Idx].test(Pat))
        continue;
      FlowGraph Next = G;
      auto &Instrs = Next.block(B).Instrs;
      Instrs.erase(Instrs.begin() + static_cast<long>(Idx));
      Next.touchBlock(B);
      Out.push_back(std::move(Next));
    }
  }
}

/// All single-pattern hoisting successors of \p G.
void hoistingSuccessors(const FlowGraph &G, std::vector<FlowGraph> &Out) {
  AssignPatternTable Pats;
  Pats.build(G);
  for (size_t PatIdx = 0; PatIdx < Pats.size(); ++PatIdx) {
    const AssignPat Pat = Pats.pattern(PatIdx);
    FlowGraph Next = G;
    bool Changed = runAssignmentHoisting(
        Next, [&](const AssignPatternTable &NextPats) {
          BitVector Allowed(NextPats.size());
          size_t Idx = NextPats.indexOf(Pat.Lhs, Pat.Rhs);
          if (Idx != AssignPatternTable::npos)
            Allowed.set(Idx);
          return Allowed;
        });
    if (Changed)
      Out.push_back(std::move(Next));
  }
}

} // namespace

EnumerationResult am::enumerateUniverse(const FlowGraph &G,
                                        const EnumerationOptions &Opts) {
  AM_STAT_COUNTER(NumEnumerations, "enumerate.runs");
  AM_STAT_COUNTER(NumCandidates, "enumerate.candidates");
  AM_STAT_COUNTER(NumDistinctStates, "enumerate.states");
  AM_STAT_INC(NumEnumerations);
  AM_SPAN(Span, "enumerate.universe");

  EnumerationResult Result;
  std::unordered_set<std::string> Seen;
  std::deque<std::pair<FlowGraph, unsigned>> Work;
  uint64_t Candidates = 0;

  auto Push = [&](FlowGraph Member, unsigned Depth) {
    ++Candidates;
    AM_STAT_INC(NumCandidates);
    if (Result.Members.size() >= Opts.MaxStates) {
      Result.Truncated = true;
      return;
    }
    std::string Key = printGraph(Member);
    if (!Seen.insert(Key).second)
      return;
    AM_STAT_INC(NumDistinctStates);
    Result.Members.push_back(Member);
    if (Depth < Opts.MaxDepth)
      Work.emplace_back(std::move(Member), Depth);
  };

  // Seeds: the split program and its initialized form (Lemma 4.1).
  FlowGraph Base = G;
  removeSkips(Base);
  Base.splitCriticalEdges();
  Push(Base, 0);
  FlowGraph Init = Base;
  runInitializationPhase(Init);
  Push(Init, 0);

  std::vector<FlowGraph> Successors;
  while (!Work.empty()) {
    auto [Cur, Depth] = std::move(Work.front());
    Work.pop_front();
    if (Result.Members.size() >= Opts.MaxStates) {
      Result.Truncated = true;
      break;
    }
    Successors.clear();
    eliminationSuccessors(Cur, Successors);
    hoistingSuccessors(Cur, Successors);
    FlowGraph Flushed = Cur;
    if (runFinalFlush(Flushed))
      Successors.push_back(std::move(Flushed));
    for (FlowGraph &Next : Successors)
      Push(std::move(Next), Depth + 1);
  }
  Span.arg("candidates", Candidates);
  Span.arg("states", Result.Members.size());
  Span.arg("truncated", Result.Truncated ? 1 : 0);
  return Result;
}
