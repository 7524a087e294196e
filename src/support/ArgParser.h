//===- support/ArgParser.h - Declarative CLI flag parsing ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small declarative parser for the `--flag` / `--flag=value` style the
/// tools use, extracted from the ad-hoc loop that had grown inside
/// tools/amopt.cpp.  Three flag shapes:
///
///  * flag          — boolean `--name`; a `=value` suffix is an error;
///  * option        — `--name=value`; the value is required;
///  * optionalValue — `--name` or `--name=value` (e.g. `--stats[=json]`,
///                    `--remarks[=file]`).
///
/// The parser rejects unknown flags and repeated flags with a one-line
/// error naming the offender, recognizes `--help`/`-h` automatically, and
/// renders an aligned help text from the registered descriptions.
/// Everything that does not start with `-` is collected as a positional
/// argument, in order.
///
//===----------------------------------------------------------------------===//

#ifndef AM_SUPPORT_ARGPARSER_H
#define AM_SUPPORT_ARGPARSER_H

#include <string>
#include <vector>

namespace am::support {

class ArgParser {
public:
  /// \p Prog is the program name for the usage line; \p Overview is the
  /// free-text paragraph printed after it in helpText(); \p Positionals
  /// is the usage line's synopsis of the positional arguments (e.g.
  /// "[FILE]"), empty for a tool that takes none.
  ArgParser(std::string Prog, std::string Overview,
            std::string Positionals = "");

  /// Registers a boolean flag `--Name`.  \p Target is set to true when
  /// the flag appears; passing `--Name=anything` is an error.
  void flag(const std::string &Name, bool &Target, std::string Help);

  /// Registers `--Name=META`; the value is required and stored in
  /// \p Target.  A bare `--Name` is an error.
  void option(const std::string &Name, std::string &Target, std::string Help,
              std::string Meta = "VALUE");

  /// Registers `--Name[=META]`: \p Present is set when the flag appears
  /// at all, \p Value only when a value was attached.
  void optionalValue(const std::string &Name, bool &Present,
                     std::string &Value, std::string Help,
                     std::string Meta = "VALUE");

  /// Parses \p Argv[1..Argc).  Returns false on any error (unknown flag,
  /// repeated flag, missing or forbidden value) — error() then holds a
  /// one-line description.  `--help`/`-h` stops parsing, sets
  /// helpRequested() and returns true.
  bool parse(int Argc, const char *const *Argv);

  bool helpRequested() const { return HelpRequested; }
  const std::string &error() const { return Error; }
  const std::vector<std::string> &positional() const { return Positional; }

  /// Usage line, overview and one aligned line per registered flag.
  std::string helpText() const;

private:
  enum class Shape { Flag, Option, OptionalValue };
  struct Spec {
    std::string Name;
    Shape S;
    bool *BoolTarget = nullptr;
    std::string *ValueTarget = nullptr;
    std::string Help;
    std::string Meta;
    bool Seen = false;
  };

  Spec *find(const std::string &Name);

  std::string Prog;
  std::string Overview;
  std::string Positionals;
  std::vector<Spec> Specs;
  std::vector<std::string> Positional;
  std::string Error;
  bool HelpRequested = false;
};

} // namespace am::support

#endif // AM_SUPPORT_ARGPARSER_H
