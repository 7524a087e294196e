//===- ir/VarTable.h - Variable registry ------------------------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-graph registry of variables.  Distinguishes original program
/// variables from the temporaries h_e that the initialization phase
/// associates with expression patterns (Section 2: every expression pattern
/// e is associated with a unique temporary h_e).
///
//===----------------------------------------------------------------------===//

#ifndef AM_IR_VARTABLE_H
#define AM_IR_VARTABLE_H

#include "ir/Ids.h"

#include <cassert>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace am {

/// Registry of the variables of one FlowGraph.
class VarTable {
public:
  /// Returns the id for \p Name, creating a non-temporary variable if it
  /// does not exist yet.
  VarId getOrCreate(std::string_view Name) {
    auto It = ByName.find(Name);
    if (It != ByName.end())
      return It->second;
    VarId Id = makeVarId(static_cast<uint32_t>(Infos.size()));
    Infos.push_back({std::string(Name), false, ExprId::Invalid});
    ByName.emplace(Infos.back().Name, Id);
    return Id;
  }

  /// Returns the id for \p Name or Invalid if unknown.
  VarId lookup(std::string_view Name) const {
    auto It = ByName.find(Name);
    return It == ByName.end() ? VarId::Invalid : It->second;
  }

  /// Creates a fresh temporary associated with expression pattern \p E.
  /// The name is `h<N>` unless that collides with an existing variable, in
  /// which case underscores are appended until it is fresh.
  VarId createTemp(ExprId E, uint32_t PreferredNumber) {
    std::string Name = "h" + std::to_string(PreferredNumber);
    while (ByName.count(Name))
      Name.push_back('_');
    VarId Id = makeVarId(static_cast<uint32_t>(Infos.size()));
    Infos.push_back({Name, true, E});
    ByName.emplace(Infos.back().Name, Id);
    return Id;
  }

  const std::string &name(VarId V) const { return info(V).Name; }

  /// True if \p V is a temporary introduced for an expression pattern.
  bool isTemp(VarId V) const { return info(V).IsTemp; }

  /// The expression pattern a temporary stands for (Invalid for ordinary
  /// variables).
  ExprId tempFor(VarId V) const { return info(V).TempFor; }

  size_t size() const { return Infos.size(); }

  /// Marks an existing variable as the temporary for \p E (used when
  /// cloning graphs or rebuilding temp associations after parsing).
  void markTemp(VarId V, ExprId E) {
    Infos[index(V)].IsTemp = true;
    Infos[index(V)].TempFor = E;
  }

private:
  struct VarInfo {
    std::string Name;
    bool IsTemp;
    ExprId TempFor;
  };

  const VarInfo &info(VarId V) const {
    assert(index(V) < Infos.size() && "variable id out of range");
    return Infos[index(V)];
  }

  /// Hashes owned keys and string_view probes alike, so a lookup builds
  /// no string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const noexcept {
      return std::hash<std::string_view>()(S);
    }
  };

  std::vector<VarInfo> Infos;
  std::unordered_map<std::string, VarId, NameHash, std::equal_to<>> ByName;
};

} // namespace am

#endif // AM_IR_VARTABLE_H
