//===- verify/FaultInjector.cpp - Deterministic fault injection -*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "verify/FaultInjector.h"

#include <cassert>
#include <cctype>

using namespace am;
using namespace am::fault;

std::atomic<FaultInjector *> FaultInjector::Active{nullptr};

void FaultInjector::install() {
  assert(!Active.load(std::memory_order_relaxed) &&
         "another FaultInjector is already installed");
  Installed = true;
  Active.store(this, std::memory_order_relaxed);
}

void FaultInjector::uninstall() {
  if (!Installed)
    return;
  Installed = false;
  Active.store(nullptr, std::memory_order_relaxed);
}

const char *fault::faultClassName(FaultClass C) {
  switch (C) {
  case FaultClass::RaeFlipBit:
    return "rae-flip";
  case FaultClass::AhtSkipBlockage:
    return "aht-skip-block";
  case FaultClass::AhtMisplaceInsert:
    return "aht-misplace";
  case FaultClass::CorruptEdge:
    return "edge-corrupt";
  }
  return "?";
}

bool fault::parseFaultClass(const std::string &Name, FaultClass &Out) {
  for (unsigned I = 0; I < NumFaultClasses; ++I) {
    FaultClass C = static_cast<FaultClass>(I);
    if (Name == faultClassName(C)) {
      Out = C;
      return true;
    }
  }
  return false;
}

diag::Expected<std::pair<FaultClass, unsigned>>
fault::parseFaultSpec(const std::string &Spec) {
  std::string Name = Spec;
  unsigned Site = 0;
  size_t Colon = Spec.find(':');
  if (Colon != std::string::npos) {
    Name = Spec.substr(0, Colon);
    std::string SiteStr = Spec.substr(Colon + 1);
    if (SiteStr.empty())
      return diag::Diagnostic::error(
          "inject", "missing site after ':' in '" + Spec + "'");
    for (char C : SiteStr)
      if (!std::isdigit(static_cast<unsigned char>(C)))
        return diag::Diagnostic::error(
            "inject", "site '" + SiteStr + "' is not a number");
    // Sites are small (they index opportunities within one run); clamp
    // absurd values rather than overflowing.
    unsigned long long V = std::stoull(SiteStr.substr(0, 9));
    Site = static_cast<unsigned>(V);
  }
  FaultClass C;
  if (!parseFaultClass(Name, C)) {
    diag::Diagnostic D =
        diag::Diagnostic::error("inject", "unknown fault class '" + Name + "'");
    std::string Known;
    for (unsigned I = 0; I < NumFaultClasses; ++I) {
      if (!Known.empty())
        Known += ", ";
      Known += faultClassName(static_cast<FaultClass>(I));
    }
    D.note("known classes: " + Known);
    return D;
  }
  return std::make_pair(C, Site);
}
