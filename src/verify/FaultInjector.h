//===- verify/FaultInjector.h - Deterministic fault injection --*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, flag-selected fault injection for proving the guarded
/// pipeline's detectors work.  Each *fault class* names one specific way a
/// transform could be wrong; while an injector is installed and armed for
/// a class, the corresponding hook inside the transform fires the fault at
/// exactly one *site* (the N-th dynamic opportunity of that class in the
/// run, counted deterministically).  The guard layers must then catch it:
///
///   rae-flip       rae treats one non-redundant occurrence as redundant
///                  (one flipped N-REDUNDANT dataflow bit) and wrongly
///                  eliminates it — a semantic fault the equivalence
///                  spot-check catches;
///   aht-skip-block aht skips one blockage check and hoists an occurrence
///                  past its blocker — a semantic fault;
///   aht-misplace   aht realizes one entry insertion at the block *end*
///                  instead of the entry — a placement fault, semantic
///                  whenever the block body interferes with the pattern;
///   edge-corrupt   a pass leaves one successor edge rewired without
///                  updating the predecessor list — a structural fault
///                  GraphVerifier's adjacency check catches.
///
/// Cost model mirrors report::RecorderSession: every hook is
/// `if (FaultInjector *FI = FaultInjector::current())` — one relaxed
/// atomic load when injection is off, which is always outside tests and
/// `amopt --inject=...`.
///
//===----------------------------------------------------------------------===//

#ifndef AM_VERIFY_FAULTINJECTOR_H
#define AM_VERIFY_FAULTINJECTOR_H

#include "support/Diag.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

namespace am::fault {

enum class FaultClass : uint8_t {
  RaeFlipBit,        ///< "rae-flip"
  AhtSkipBlockage,   ///< "aht-skip-block"
  AhtMisplaceInsert, ///< "aht-misplace"
  CorruptEdge,       ///< "edge-corrupt"
};

constexpr unsigned NumFaultClasses = 4;

const char *faultClassName(FaultClass C);

/// Parses a class name; returns false if unknown.
bool parseFaultClass(const std::string &Name, FaultClass &Out);

/// Parses "<class>[:<site>]" (site defaults to 0 = the first opportunity).
diag::Expected<std::pair<FaultClass, unsigned>>
parseFaultSpec(const std::string &Spec);

/// One armed fault per class, fired at a deterministic site.  Install one
/// instance process-wide; the hooks in the transforms consult current().
/// arm()/install() are setup-time (single-threaded); fire() serializes
/// its site counting internally, so pipelines running concurrently on
/// several threads under one installed injector cannot corrupt the slots.
class FaultInjector {
public:
  FaultInjector() = default;
  ~FaultInjector() {
    if (Installed)
      uninstall();
  }
  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  /// Makes this the process-wide active injector.  At most one at a time.
  void install();
  void uninstall();

  /// The active injector, or nullptr — one relaxed atomic load.
  static FaultInjector *current() {
    return Active.load(std::memory_order_relaxed);
  }

  /// Arms \p C to fire at its \p Site-th dynamic opportunity.
  void arm(FaultClass C, unsigned Site = 0) {
    Slot &S = slot(C);
    S.Armed = true;
    S.Site = Site;
  }

  bool armedFor(FaultClass C) const { return slot(C).Armed; }

  /// Called by the transform hooks at every opportunity of class \p C.
  /// Returns true exactly when the armed site index is reached; each armed
  /// fault fires at most once per run.
  bool fire(FaultClass C) {
    std::lock_guard<std::mutex> Lock(FireMu);
    Slot &S = slot(C);
    if (!S.Armed || S.Fired)
      return false;
    if (S.Counter++ != S.Site)
      return false;
    S.Fired = true;
    return true;
  }

  /// How many armed faults actually fired (tests assert the injected
  /// fault really happened — an undetected fault that never fired would
  /// make the detection matrix vacuous).
  unsigned firedCount() const {
    unsigned N = 0;
    for (const Slot &S : Slots)
      N += S.Fired;
    return N;
  }

  /// Resets site counters and fired flags (armed classes stay armed), for
  /// deterministic re-runs within one test.
  void resetCounters() {
    for (Slot &S : Slots) {
      S.Counter = 0;
      S.Fired = false;
    }
  }

private:
  struct Slot {
    bool Armed = false;
    bool Fired = false;
    unsigned Site = 0;
    unsigned Counter = 0;
  };

  Slot &slot(FaultClass C) { return Slots[static_cast<unsigned>(C)]; }
  const Slot &slot(FaultClass C) const {
    return Slots[static_cast<unsigned>(C)];
  }

  static std::atomic<FaultInjector *> Active;

  std::mutex FireMu;
  Slot Slots[NumFaultClasses];
  bool Installed = false;
};

} // namespace am::fault

#endif // AM_VERIFY_FAULTINJECTOR_H
