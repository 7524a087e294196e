//===- interp/Equivalence.cpp - Equivalence implementation -----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "interp/Equivalence.h"
#include "support/Stats.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace am;

EquivalenceReport am::checkEquivalent(
    const FlowGraph &A, const FlowGraph &B,
    const std::unordered_map<std::string, int64_t> &Inputs,
    uint64_t NondetSeed, Interpreter::Options Opts) {
  AM_STAT_COUNTER(NumChecks, "equivalence.checks");
  AM_STAT_INC(NumChecks);
  AM_SPAN(Span, "equivalence.check");
  EquivalenceReport Rep;
  Rep.Lhs = Interpreter::execute(A, Inputs, NondetSeed, Opts);
  Rep.Rhs = Interpreter::execute(B, Inputs, NondetSeed, Opts);

  using Status = ExecResult::Status;
  if (Rep.Lhs.St == Status::Finished && Rep.Rhs.St == Status::Finished) {
    if (Rep.Lhs.Output == Rep.Rhs.Output) {
      Rep.Equivalent = true;
      return Rep;
    }
    Rep.Detail = "finished with different output traces";
    return Rep;
  }
  // A trap or a step-limit cutoff truncates the trace at a point that may
  // legally shift under code motion; require prefix agreement.
  bool LhsPartial = Rep.Lhs.St != Status::Finished;
  bool RhsPartial = Rep.Rhs.St != Status::Finished;
  bool TrapVsFinish = (Rep.Lhs.St == Status::Trapped &&
                       Rep.Rhs.St == Status::Finished) ||
                      (Rep.Rhs.St == Status::Trapped &&
                       Rep.Lhs.St == Status::Finished);
  if (TrapVsFinish) {
    Rep.Detail = "one execution trapped, the other finished";
    return Rep;
  }
  if (LhsPartial || RhsPartial) {
    const auto &Shorter =
        Rep.Lhs.Output.size() <= Rep.Rhs.Output.size() ? Rep.Lhs.Output
                                                       : Rep.Rhs.Output;
    const auto &Longer =
        Rep.Lhs.Output.size() <= Rep.Rhs.Output.size() ? Rep.Rhs.Output
                                                       : Rep.Lhs.Output;
    if (std::equal(Shorter.begin(), Shorter.end(), Longer.begin())) {
      Rep.Equivalent = true;
      return Rep;
    }
    Rep.Detail = "truncated traces diverge";
    return Rep;
  }
  Rep.Detail = "execution statuses differ";
  return Rep;
}

std::unordered_map<std::string, int64_t>
am::equivalenceInputs(const FlowGraph &G, uint64_t Round) {
  std::unordered_map<std::string, int64_t> Inputs;
  for (uint32_t V = 0; V < G.Vars.size(); ++V)
    Inputs[G.Vars.name(makeVarId(V))] =
        static_cast<int64_t>((Round * 2654435761u + V * 40503u) % 41) - 20;
  return Inputs;
}
