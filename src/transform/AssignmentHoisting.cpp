//===- transform/AssignmentHoisting.cpp - aht implementation ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/AssignmentHoisting.h"
#include "analysis/PaperAnalyses.h"
#include "ir/InstrNumbering.h"
#include "ir/Printer.h"
#include "report/Recorder.h"
#include "support/Remarks.h"
#include "support/Telemetry.h"
#include "transform/AssignmentMotion.h"
#include "verify/FaultInjector.h"

using namespace am;

namespace {

/// A remark buffered during the rebuild of one block.  Remarks are only
/// published if the block's rebuild actually commits (NewInstrs differs
/// from the old list): a remove+reinsert that reproduces the identical
/// instruction sequence is a no-op whose old instructions — and old ids —
/// survive, so publishing its remarks would fabricate history.
struct PendingRemark {
  remarks::Remark R;
  size_t Pat;     // pattern index, for post-hoc parent linking
  bool IsInsert;  // inserted instance (Parents filled after the loop)
};

} // namespace

bool am::runAssignmentHoisting(FlowGraph &G, AmContext &Ctx,
                               const HoistFilter &Filter) {
  assert(!G.hasCriticalEdges() &&
         "assignment hoisting requires split critical edges");
  AM_SPAN(Span, "aht");
  AM_REMARK_PASS_SCOPE("aht");
  if (AM_REMARKS_ENABLED())
    ensureInstrIds(G);
  Ctx.refreshPatterns(G);
  const AssignPatternTable &Pats = Ctx.patterns();
  if (Pats.size() == 0)
    return false;
  HoistabilityAnalysis Hoist =
      HoistabilityAnalysis::run(G, Pats, Ctx.hoistSolver(), Ctx.hoistLocals(),
                                Ctx.patternGeneration());
  if (report::RecorderSession *Rec = report::RecorderSession::current())
    Rec->captureHoistability(G, Pats, Hoist, Rec->round());

  BitVector Allowed;
  if (Filter)
    Allowed = Filter(Pats);

  // Phase 1: record all decisions against the frozen graph.
  struct BlockDecision {
    /// Exit-inserts realized here on behalf of a branching predecessor
    /// whose condition blocks the pattern: (pattern, pred block).
    std::vector<std::pair<size_t, BlockId>> FromPreds;
    std::vector<size_t> AtEntry;      // N-INSERT
    std::vector<bool> RemoveInstr;    // hoisting candidates
    bool AnyRemove = false;
    std::vector<size_t> BeforeBranch; // X-INSERT, branch does not block
    std::vector<size_t> AtEnd;        // X-INSERT, no branch instruction
  };
  std::vector<BlockDecision> Decisions(G.numBlocks());

  AM_SPAN(InsertSpan, "aht.insert");
  // Insertions are realized in first-occurrence (rank) order — the order
  // a fresh numbering would give bit order — and only for patterns that
  // still occur: a dead slot of the stable numbering is no pattern of
  // this program.
  auto Keep = [&](size_t Pat) {
    return Pats.rank(Pat) != AssignPatternTable::NoRank &&
           (!Filter || Allowed.test(Pat));
  };
  Hoist.forEachInsert(
      [&](BlockId B, size_t Pat) {
        if (Keep(Pat))
          Decisions[B].AtEntry.push_back(Pat);
      },
      [&](BlockId B, size_t Pat) {
        if (Keep(Pat))
          Decisions[B].AtEnd.push_back(Pat);
      });

  BitVector Seen(Pats.size());
  BitVector BlockedSoFar, Tmp; // remark payloads only
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const BasicBlock &BB = G.block(B);
    BlockDecision &D = Decisions[B];

    Pats.sortByRank(D.AtEntry);
    // Footnote 6: after edge splitting there are never entry insertions at
    // join nodes.
    assert((D.AtEntry.empty() || BB.Preds.size() <= 1 || B == G.start()) &&
           "unexpected entry insertion at a join node");

    // Hoisting candidates: occurrences not preceded by a blocker within
    // their block.  Every occurrence of `x := t` modifies x and so blocks
    // its own pattern, which leaves the first occurrence as the only
    // possible candidate — and it is one exactly when the cached
    // LOC-HOISTABLE bit is set.  No per-instruction blocker scan needed.
    D.RemoveInstr.assign(BB.Instrs.size(), false);
    WordRow LocHoistable = Hoist.locHoistableRow(B);
    bool AnyCandidate = false;
    for (size_t Idx = 0; Idx < BB.Instrs.size() && !AnyCandidate; ++Idx) {
      size_t Pat = Pats.occurrenceAt(B, Idx);
      AnyCandidate = Pat != AssignPatternTable::npos &&
                     LocHoistable.test(Pat) && (!Filter || Allowed.test(Pat));
    }
    bool Remarks = AM_REMARKS_ENABLED();
    if (AnyCandidate) {
      // First in-block blocker per pattern, for Blocked remark payloads.
      std::vector<uint32_t> FirstBlocker;
      if (Remarks) {
        FirstBlocker.assign(Pats.size(), 0);
        BlockedSoFar.clearAndResize(Pats.size());
      }
      for (size_t Idx = 0; Idx < BB.Instrs.size(); ++Idx) {
        size_t Pat = Pats.occurrenceAt(B, Idx);
        if (Pat != AssignPatternTable::npos &&
            (!Filter || Allowed.test(Pat))) {
          bool Blocked = Seen.test(Pat) || !LocHoistable.test(Pat);
          Seen.set(Pat);
          if (Blocked)
            if (fault::FaultInjector *FI = fault::FaultInjector::current())
              // aht-skip-block: skip one blockage check, hoisting the
              // occurrence past its in-block blocker.
              Blocked = !FI->fire(fault::FaultClass::AhtSkipBlockage);
          if (!Blocked) {
            D.RemoveInstr[Idx] = true;
            D.AnyRemove = true;
          } else if (Remarks) {
            // The occurrence stays put this round: something earlier in
            // the block blocks its pattern.  Informational (non-terminal)
            // and true whether or not the block's rebuild commits, so it
            // is published directly.
            remarks::Remark R;
            R.K = remarks::Kind::Blocked;
            R.InstrId = BB.Instrs[Idx].Id;
            R.Block = B;
            R.InstrIndex = static_cast<uint32_t>(Idx);
            R.Pattern = printInstr(BB.Instrs[Idx], G.Vars);
            if (BB.Instrs[Idx].isAssign())
              R.Var = G.Vars.name(BB.Instrs[Idx].Lhs);
            R.Solve = Hoist.solveSerial();
            R.fact("LOC-BLOCKED", "1");
            if (FirstBlocker[Pat] != 0)
              R.fact("blocked_by", "#" + std::to_string(FirstBlocker[Pat]));
            remarks::Sink::get().add(std::move(R));
          }
        }
        if (Remarks) {
          Pats.blockedBy(BB.Instrs[Idx], Tmp);
          Tmp.forEachSetBit([&](size_t BPat) {
            if (!BlockedSoFar.test(BPat) && FirstBlocker[BPat] == 0)
              FirstBlocker[BPat] = BB.Instrs[Idx].Id;
          });
          BlockedSoFar |= Tmp;
        }
      }
      for (size_t Idx = 0; Idx < BB.Instrs.size(); ++Idx) {
        size_t Pat = Pats.occurrenceAt(B, Idx);
        if (Pat != AssignPatternTable::npos)
          Seen.reset(Pat);
      }
    }

    // Exit insertions: at the block's end, or around its branch.
    Pats.sortByRank(D.AtEnd);
    const Instr *Br = BB.branchInstr();
    if (!Br)
      continue;
    for (size_t Pat : D.AtEnd) {
      if (!Pats.blocks(*Br, Pat)) {
        D.BeforeBranch.push_back(Pat);
        continue;
      }
      // The branch condition itself blocks the pattern: place the
      // insertion after the condition, i.e. at the entry of every
      // successor (each has a single predecessor after edge splitting).
      for (BlockId S : BB.Succs) {
        assert(G.block(S).Preds.size() == 1 &&
               "successor of a branching block must have a unique pred");
        Decisions[S].FromPreds.push_back({Pat, B});
      }
    }
    D.AtEnd.clear();
  }

  // Phase 2: rebuild the instruction lists.
  bool Changed = false;
  std::vector<PendingRemark> Accepted;
  // Committed removed-occurrence ids per pattern; inserted instances of a
  // pattern descend from the occurrences hoisted away this round.
  std::vector<std::vector<uint32_t>> RemovedIds;
  if (AM_REMARKS_ENABLED())
    RemovedIds.resize(Pats.size());
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    BasicBlock &BB = G.block(B);
    const BlockDecision &D = Decisions[B];
    // A block with no decision would be rebuilt to its own instructions.
    if (!D.AnyRemove && D.FromPreds.empty() && D.AtEntry.empty() &&
        D.BeforeBranch.empty() && D.AtEnd.empty())
      continue;

    std::vector<PendingRemark> Pending;
    std::vector<Instr> NewInstrs;
    NewInstrs.reserve(BB.Instrs.size() + D.AtEntry.size() +
                      D.FromPreds.size() + D.AtEnd.size() +
                      D.BeforeBranch.size());
    auto Emit = [&](size_t Pat, remarks::Placement Place,
                    BlockId FromBlock, const char *Predicate) {
      NewInstrs.push_back(
          Instr::assign(Pats.pattern(Pat).Lhs, Pats.pattern(Pat).Rhs));
      if (AM_REMARKS_ENABLED()) {
        Instr &New = NewInstrs.back();
        New.Id = remarks::Sink::get().freshId();
        PendingRemark P;
        P.Pat = Pat;
        P.IsInsert = true;
        P.R.K = remarks::Kind::Hoist;
        P.R.Act = remarks::Action::Insert;
        P.R.InstrId = New.Id;
        P.R.Block = B;
        P.R.InstrIndex = static_cast<uint32_t>(NewInstrs.size() - 1);
        P.R.Place = Place;
        if (FromBlock != static_cast<BlockId>(-1))
          P.R.FromBlock = FromBlock;
        P.R.Pattern = printInstr(New, G.Vars);
        P.R.Var = G.Vars.name(Pats.pattern(Pat).Lhs);
        P.R.Solve = Hoist.solveSerial();
        P.R.fact(Predicate, "1");
        Pending.push_back(std::move(P));
      }
    };
    // Predecessor-exit insertions precede this block's own entry point.
    for (auto [Pat, Pred] : D.FromPreds)
      Emit(Pat, remarks::Placement::FromPred, Pred, "X-INSERT");
    std::vector<size_t> Misplaced;
    for (size_t Pat : D.AtEntry) {
      if (fault::FaultInjector *FI = fault::FaultInjector::current())
        // aht-misplace: realize one entry insertion at the block *end*.
        if (FI->fire(fault::FaultClass::AhtMisplaceInsert)) {
          Misplaced.push_back(Pat);
          continue;
        }
      Emit(Pat, remarks::Placement::Entry, static_cast<BlockId>(-1),
           "N-INSERT");
    }
    const Instr *Br = BB.branchInstr();
    for (size_t Idx = 0; Idx < BB.Instrs.size(); ++Idx) {
      if (D.RemoveInstr[Idx]) {
        if (AM_REMARKS_ENABLED()) {
          PendingRemark P;
          P.Pat = Pats.occurrenceAt(B, Idx);
          P.IsInsert = false;
          P.R.K = remarks::Kind::Hoist;
          P.R.Act = remarks::Action::Remove;
          P.R.InstrId = BB.Instrs[Idx].Id;
          P.R.Block = B;
          P.R.InstrIndex = static_cast<uint32_t>(Idx);
          P.R.Terminal = true;
          P.R.Pattern = printInstr(BB.Instrs[Idx], G.Vars);
          if (BB.Instrs[Idx].isAssign())
            P.R.Var = G.Vars.name(BB.Instrs[Idx].Lhs);
          P.R.Solve = Hoist.solveSerial();
          P.R.fact("LOC-HOISTABLE", "1").fact("candidate", "1");
          Pending.push_back(std::move(P));
        }
        continue;
      }
      if (Br && &BB.Instrs[Idx] == Br)
        for (size_t Pat : D.BeforeBranch)
          Emit(Pat, remarks::Placement::BeforeBranch,
               static_cast<BlockId>(-1), "X-INSERT");
      NewInstrs.push_back(BB.Instrs[Idx]);
    }
    for (size_t Pat : D.AtEnd)
      Emit(Pat, remarks::Placement::Exit, static_cast<BlockId>(-1),
           "X-INSERT");
    for (size_t Pat : Misplaced)
      Emit(Pat, remarks::Placement::Entry, static_cast<BlockId>(-1),
           "N-INSERT");

    if (NewInstrs != BB.Instrs) {
      BB.Instrs = std::move(NewInstrs);
      G.touchBlock(B);
      Changed = true;
      if (AM_REMARKS_ENABLED()) {
        for (PendingRemark &P : Pending) {
          if (!P.IsInsert && P.Pat != AssignPatternTable::npos)
            RemovedIds[P.Pat].push_back(P.R.InstrId);
          Accepted.push_back(std::move(P));
        }
      }
    }
    // A non-committing rebuild drops its pending remarks: the old
    // instructions (and their ids) are still the program.
  }

  if (AM_REMARKS_ENABLED()) {
    for (PendingRemark &P : Accepted) {
      if (P.IsInsert && P.Pat < RemovedIds.size())
        P.R.Parents = RemovedIds[P.Pat];
      remarks::Sink::get().add(std::move(P.R));
    }
  }
  return Changed;
}

bool am::runAssignmentHoisting(FlowGraph &G, const HoistFilter &Filter) {
  AmContext Ctx;
  return runAssignmentHoisting(G, Ctx, Filter);
}
