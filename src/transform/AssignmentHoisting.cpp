//===- transform/AssignmentHoisting.cpp - aht implementation ---*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "transform/AssignmentHoisting.h"
#include "analysis/PaperAnalyses.h"
#include "ir/InstrNumbering.h"
#include "report/Recorder.h"
#include "support/Telemetry.h"
#include "transform/AssignmentMotion.h"
#include "verify/FaultInjector.h"

using namespace am;

static constexpr BlockId NoBlock = static_cast<BlockId>(-1);

bool am::runAssignmentHoisting(FlowGraph &G, AmContext &Ctx,
                               const HoistFilter &Filter) {
  assert(!G.hasCriticalEdges() &&
         "assignment hoisting requires split critical edges");
  AM_SPAN(Span, "aht");
  AM_REMARK_PASS_SCOPE("aht");
  bool Remarks = AM_REMARKS_ENABLED();
  if (Remarks)
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

  AM_SPAN(InsertSpan, "aht.insert");
  // Insertions are realized in first-occurrence (rank) order — the order
  // a fresh numbering would give bit order — and only for patterns that
  // still occur: a dead slot of the stable numbering is no pattern of
  // this program.
  auto Keep = [&](size_t Pat) {
    return Pats.rank(Pat) != AssignPatternTable::NoRank &&
           (!Filter || Allowed.test(Pat));
  };

  // Each block in turn, against the frozen graph's facts: its insert
  // predicates and hoisting candidates, then its rebuild.
  bool Changed = false;
  BitVector Seen(Pats.size());
  BitVector BlockedSoFar, Tmp;        // remark payloads only
  std::vector<uint32_t> FirstBlocker; // remark payloads only
  std::vector<size_t> AtEntry, AtExit, FromPred, Misplaced;
  std::vector<uint32_t> Removed; // candidate indices, ascending
  std::vector<BlockRebuilder::Insert> Inserts;
  std::vector<remarks::Placement> Places; // per insert
  BlockRebuilder Rebuild(Remarks ? Pats.size() : 0);
  for (BlockId B = 0; B < G.numBlocks(); ++B) {
    const BasicBlock &BB = G.block(B);
    AtEntry.clear();
    AtExit.clear();
    FromPred.clear();
    Hoist.forEachInsert(
        B,
        [&](size_t Pat) {
          if (Keep(Pat))
            AtEntry.push_back(Pat);
        },
        [&](size_t Pat) {
          if (Keep(Pat))
            AtExit.push_back(Pat);
        });
    Pats.sortByRank(AtEntry);
    Pats.sortByRank(AtExit);
    // Footnote 6: after edge splitting there are never entry insertions at
    // join nodes.
    assert((AtEntry.empty() || BB.Preds.size() <= 1 || B == G.start()) &&
           "unexpected entry insertion at a join node");
    // Exit insertions go before the branch, or after it where its
    // condition blocks the pattern: at the entry of every successor, each
    // with a single predecessor after edge splitting.
    if (const Instr *Br = BB.branchInstr())
      std::erase_if(AtExit, [&](size_t Pat) { return Pats.blocks(*Br, Pat); });
    BlockId Pred = BB.Preds.size() == 1 ? BB.Preds[0] : NoBlock;
    if (const Instr *Br =
            Pred == NoBlock ? nullptr : G.block(Pred).branchInstr()) {
      Hoist.forEachInsert(Pred, nullptr, [&](size_t Pat) {
        if (Keep(Pat) && Pats.blocks(*Br, Pat))
          FromPred.push_back(Pat);
      });
      Pats.sortByRank(FromPred);
    }

    // Hoisting candidates: occurrences not preceded by a blocker within
    // their block.  Every occurrence of `x := t` modifies x and so blocks
    // its own pattern, which leaves the first occurrence as the only
    // possible candidate — and it is one exactly when the cached
    // LOC-HOISTABLE bit is set.  No per-instruction blocker scan needed.
    Removed.clear();
    WordRow LocHoistable = Hoist.locHoistableRow(B);
    bool AnyCandidate = false;
    for (size_t Idx = 0; Idx < BB.Instrs.size() && !AnyCandidate; ++Idx) {
      size_t Pat = Pats.occurrenceAt(B, Idx);
      AnyCandidate = Pat != AssignPatternTable::npos &&
                     LocHoistable.test(Pat) && (!Filter || Allowed.test(Pat));
    }
    if (AnyCandidate) {
      // First in-block blocker per pattern, for Blocked remark payloads.
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
            Removed.push_back(static_cast<uint32_t>(Idx));
          } else if (Remarks) {
            // The occurrence stays put this round: something earlier in
            // the block blocks its pattern.  Informational (non-terminal)
            // and true whether or not the block's rebuild commits, so it
            // is published directly.
            remarks::Remark R =
                describe(remarks::Kind::Blocked, G, B, Idx, BB.Instrs[Idx],
                         Hoist.solveSerial());
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
    // A block with no decision would be rebuilt to its own instructions.
    if (Removed.empty() && FromPred.empty() && AtEntry.empty() &&
        AtExit.empty())
      continue;

    // The inserts in placement order: predecessor-exit insertions precede
    // the block's own entry insertions; exit insertions go before the
    // branch, if any, else at the end.
    Inserts.clear();
    Places.clear();
    Misplaced.clear();
    auto Add = [&](size_t Idx, size_t Pat, remarks::Placement Place) {
      Inserts.push_back(
          {static_cast<uint32_t>(Idx), static_cast<uint32_t>(Pat)});
      Places.push_back(Place);
    };
    for (size_t Pat : FromPred)
      Add(0, Pat, remarks::Placement::FromPred);
    for (size_t Pat : AtEntry) {
      if (fault::FaultInjector *FI = fault::FaultInjector::current())
        // aht-misplace: realize one entry insertion at the block *end*.
        if (FI->fire(fault::FaultClass::AhtMisplaceInsert)) {
          Misplaced.push_back(Pat);
          continue;
        }
      Add(0, Pat, remarks::Placement::Entry);
    }
    size_t N = BB.Instrs.size();
    bool Br = BB.branchInstr();
    for (size_t Pat : AtExit)
      Add(Br ? N - 1 : N, Pat,
          Br ? remarks::Placement::BeforeBranch : remarks::Placement::Exit);
    for (size_t Pat : Misplaced)
      Add(N, Pat, remarks::Placement::Entry);

    auto Make = [&](size_t K, size_t NewIdx) {
      size_t Pat = Inserts[K].second;
      Instr New = Instr::assign(Pats.pattern(Pat).Lhs, Pats.pattern(Pat).Rhs);
      if (Remarks) {
        New.Id = remarks::Sink::get().freshId();
        remarks::Remark &R = Rebuild.remark(
            describe(remarks::Kind::Hoist, G, B, NewIdx, New,
                     Hoist.solveSerial()),
            Pat, BlockRebuilder::Role::Insert);
        R.Act = remarks::Action::Insert;
        R.Place = Places[K];
        R.FromBlock = R.Place == remarks::Placement::FromPred ? Pred : NoBlock;
        R.fact(R.Place == remarks::Placement::Entry ? "N-INSERT" : "X-INSERT",
               "1");
      }
      return New;
    };
    size_t NextRemoved = 0;
    auto Remove = [&](size_t Idx) {
      if (NextRemoved == Removed.size() || Removed[NextRemoved] != Idx)
        return false;
      ++NextRemoved;
      if (Remarks) {
        remarks::Remark &R = Rebuild.remark(
            describe(remarks::Kind::Hoist, G, B, Idx, BB.Instrs[Idx],
                     Hoist.solveSerial()),
            Pats.occurrenceAt(B, Idx), BlockRebuilder::Role::Remove);
        R.Act = remarks::Action::Remove;
        R.Terminal = true;
        R.fact("LOC-HOISTABLE", "1").fact("candidate", "1");
      }
      return true;
    };
    Changed |= Rebuild.rebuild(G, B, Inserts, Make, Remove);
  }
  Rebuild.publish();
  InsertSpan.arg("committed", Rebuild.commits());
  InsertSpan.arg("noop", Rebuild.noops());
  return Changed;
}

bool am::runAssignmentHoisting(FlowGraph &G, const HoistFilter &Filter) {
  AmContext Ctx;
  return runAssignmentHoisting(G, Ctx, Filter);
}
