//===- interp/Equivalence.h - Semantic-equivalence checking ----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observational-equivalence checking between a program and its
/// transformed version: identical `out` traces on the same inputs and the
/// same nondeterministic choices.  Used pervasively by the property tests
/// (every admissible EM/AM transformation preserves semantics).
///
//===----------------------------------------------------------------------===//

#ifndef AM_INTERP_EQUIVALENCE_H
#define AM_INTERP_EQUIVALENCE_H

#include "interp/Interpreter.h"

#include <cstdint>
#include <string>
#include <unordered_map>

namespace am {

/// Result of one equivalence check.
struct EquivalenceReport {
  bool Equivalent = false;
  std::string Detail;
  ExecResult Lhs;
  ExecResult Rhs;
};

/// Executes both graphs on the same inputs/seed and compares observable
/// behaviour: both must finish and produce identical output traces (if
/// both trap, one trace must be a prefix of the other — code motion may
/// legally move a trapping computation across writes).
EquivalenceReport checkEquivalent(
    const FlowGraph &A, const FlowGraph &B,
    const std::unordered_map<std::string, int64_t> &Inputs,
    uint64_t NondetSeed = 0,
    Interpreter::Options Opts = Interpreter::Options());

/// The pseudo-random input battery of the guarded pipeline and
/// `amopt --verify`: one small signed value per variable of \p G,
/// deterministic in (round, variable index).
std::unordered_map<std::string, int64_t>
equivalenceInputs(const FlowGraph &G, uint64_t Round);

} // namespace am

#endif // AM_INTERP_EQUIVALENCE_H
