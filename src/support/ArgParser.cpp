//===- support/ArgParser.cpp - Declarative CLI flag parsing ----*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"

#include <algorithm>
#include <cassert>

using namespace am::support;

ArgParser::ArgParser(std::string Prog, std::string Overview,
                     std::string Positionals)
    : Prog(std::move(Prog)), Overview(std::move(Overview)),
      Positionals(std::move(Positionals)) {}

ArgParser::Spec *ArgParser::find(const std::string &Name) {
  for (Spec &S : Specs)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

void ArgParser::flag(const std::string &Name, bool &Target, std::string Help) {
  assert(!find(Name) && "duplicate flag registration");
  Spec S;
  S.Name = Name;
  S.S = Shape::Flag;
  S.BoolTarget = &Target;
  S.Help = std::move(Help);
  Specs.push_back(std::move(S));
}

void ArgParser::option(const std::string &Name, std::string &Target,
                       std::string Help, std::string Meta) {
  assert(!find(Name) && "duplicate flag registration");
  Spec S;
  S.Name = Name;
  S.S = Shape::Option;
  S.ValueTarget = &Target;
  S.Help = std::move(Help);
  S.Meta = std::move(Meta);
  Specs.push_back(std::move(S));
}

void ArgParser::optionalValue(const std::string &Name, bool &Present,
                              std::string &Value, std::string Help,
                              std::string Meta) {
  assert(!find(Name) && "duplicate flag registration");
  Spec S;
  S.Name = Name;
  S.S = Shape::OptionalValue;
  S.BoolTarget = &Present;
  S.ValueTarget = &Value;
  S.Help = std::move(Help);
  S.Meta = std::move(Meta);
  Specs.push_back(std::move(S));
}

bool ArgParser::parse(int Argc, const char *const *Argv) {
  for (int Idx = 1; Idx < Argc; ++Idx) {
    std::string Arg = Argv[Idx];
    if (Arg == "--help" || Arg == "-h") {
      HelpRequested = true;
      return true;
    }
    if (Arg.rfind("--", 0) != 0) {
      if (!Arg.empty() && Arg[0] == '-') {
        Error = "unknown flag '" + Arg + "'";
        return false;
      }
      Positional.push_back(std::move(Arg));
      continue;
    }
    std::string Name = Arg;
    std::string Value;
    bool HasValue = false;
    size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Name = Arg.substr(0, Eq);
      Value = Arg.substr(Eq + 1);
      HasValue = true;
    }
    Spec *S = find(Name);
    if (!S) {
      Error = "unknown flag '" + Name + "'";
      return false;
    }
    if (S->Seen) {
      Error = "repeated flag '" + Name + "'";
      return false;
    }
    S->Seen = true;
    switch (S->S) {
    case Shape::Flag:
      if (HasValue) {
        Error = "flag '" + Name + "' does not take a value";
        return false;
      }
      *S->BoolTarget = true;
      break;
    case Shape::Option:
      if (!HasValue || Value.empty()) {
        Error = "flag '" + Name + "' requires =" + S->Meta;
        return false;
      }
      *S->ValueTarget = Value;
      break;
    case Shape::OptionalValue:
      *S->BoolTarget = true;
      if (HasValue)
        *S->ValueTarget = Value;
      break;
    }
  }
  return true;
}

std::string ArgParser::helpText() const {
  std::string Out = "usage: " + Prog + " [flags]";
  if (!Positionals.empty())
    Out += " " + Positionals;
  Out += '\n';
  if (!Overview.empty()) {
    Out += "\n";
    Out += Overview;
    if (Overview.back() != '\n')
      Out += '\n';
  }
  Out += "\nflags:\n";
  // Render each flag's left column first so the help column aligns.
  std::vector<std::string> Left;
  size_t Widest = 0;
  for (const Spec &S : Specs) {
    std::string L = "  " + S.Name;
    if (S.S == Shape::Option)
      L += "=" + S.Meta;
    else if (S.S == Shape::OptionalValue)
      L += "[=" + S.Meta + "]";
    Widest = std::max(Widest, L.size());
    Left.push_back(std::move(L));
  }
  Widest = std::max(Widest, std::string("  --help").size());
  for (size_t Idx = 0; Idx < Specs.size(); ++Idx) {
    Out += Left[Idx];
    Out.append(Widest - Left[Idx].size() + 2, ' ');
    Out += Specs[Idx].Help;
    Out += '\n';
  }
  Out += "  --help";
  Out.append(Widest - std::string("  --help").size() + 2, ' ');
  Out += "show this help\n";
  return Out;
}
