//===- tests/argparser_test.cpp - Declarative CLI parsing ------*- C++ -*-===//
//
// Part of the assignment-motion reproduction library.
//
//===----------------------------------------------------------------------===//
//
// support::ArgParser, extracted from amopt's ad-hoc flag loop: the three
// flag shapes (flag / option / optionalValue), unknown- and repeated-flag
// rejection, value-shape errors, automatic --help, positionals and the
// rendered help text.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"

#include <gtest/gtest.h>

using am::support::ArgParser;

namespace {

/// Runs \p Parser over \p Args (argv[0] is synthesized).
bool parse(ArgParser &Parser, std::initializer_list<const char *> Args) {
  std::vector<const char *> Argv{"prog"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  return Parser.parse(static_cast<int>(Argv.size()), Argv.data());
}

TEST(ArgParser, FlagShapes) {
  bool Dot = false, Stats = false;
  std::string Pass, StatsValue;
  ArgParser P("t", "");
  P.flag("--dot", Dot, "dot");
  P.option("--pass", Pass, "pass");
  P.optionalValue("--stats", Stats, StatsValue, "stats", "json");

  EXPECT_TRUE(parse(P, {"--dot", "--pass=am", "--stats"}));
  EXPECT_TRUE(Dot);
  EXPECT_EQ(Pass, "am");
  EXPECT_TRUE(Stats);
  EXPECT_TRUE(StatsValue.empty());
  EXPECT_FALSE(P.helpRequested());
  EXPECT_TRUE(P.error().empty());
}

TEST(ArgParser, OptionalValueWithValue) {
  bool Present = false;
  std::string Value;
  ArgParser P("t", "");
  P.optionalValue("--remarks", Present, Value, "remarks", "file");
  EXPECT_TRUE(parse(P, {"--remarks=out.json"}));
  EXPECT_TRUE(Present);
  EXPECT_EQ(Value, "out.json");
}

TEST(ArgParser, UnknownFlagRejected) {
  ArgParser P("t", "");
  EXPECT_FALSE(parse(P, {"--bogus"}));
  EXPECT_EQ(P.error(), "unknown flag '--bogus'");
}

TEST(ArgParser, UnknownFlagWithValueNamesOnlyTheFlag) {
  ArgParser P("t", "");
  EXPECT_FALSE(parse(P, {"--bogus=3"}));
  EXPECT_EQ(P.error(), "unknown flag '--bogus'");
}

TEST(ArgParser, SingleDashIsUnknown) {
  ArgParser P("t", "");
  EXPECT_FALSE(parse(P, {"-x"}));
  EXPECT_EQ(P.error(), "unknown flag '-x'");
}

TEST(ArgParser, RepeatedFlagRejected) {
  bool Dot = false;
  ArgParser P("t", "");
  P.flag("--dot", Dot, "dot");
  EXPECT_FALSE(parse(P, {"--dot", "--dot"}));
  EXPECT_EQ(P.error(), "repeated flag '--dot'");
}

TEST(ArgParser, RepeatedOptionRejected) {
  std::string Pass;
  ArgParser P("t", "");
  P.option("--pass", Pass, "pass");
  EXPECT_FALSE(parse(P, {"--pass=am", "--pass=lcm"}));
  EXPECT_EQ(P.error(), "repeated flag '--pass'");
}

TEST(ArgParser, FlagRefusesValue) {
  bool Dot = false;
  ArgParser P("t", "");
  P.flag("--dot", Dot, "dot");
  EXPECT_FALSE(parse(P, {"--dot=yes"}));
  EXPECT_EQ(P.error(), "flag '--dot' does not take a value");
}

TEST(ArgParser, OptionRequiresValue) {
  std::string Pass;
  ArgParser P("t", "");
  P.option("--pass", Pass, "pass", "NAME");
  EXPECT_FALSE(parse(P, {"--pass"}));
  EXPECT_EQ(P.error(), "flag '--pass' requires =NAME");
}

TEST(ArgParser, OptionRejectsEmptyValue) {
  std::string Pass;
  ArgParser P("t", "");
  P.option("--pass", Pass, "pass", "NAME");
  EXPECT_FALSE(parse(P, {"--pass="}));
  EXPECT_EQ(P.error(), "flag '--pass' requires =NAME");
}

TEST(ArgParser, HelpStopsParsing) {
  bool Dot = false;
  ArgParser P("t", "");
  P.flag("--dot", Dot, "dot");
  EXPECT_TRUE(parse(P, {"--help", "--no-such-flag"}));
  EXPECT_TRUE(P.helpRequested());
  EXPECT_TRUE(P.error().empty());
  EXPECT_TRUE(parse(P, {"-h"}));
  EXPECT_TRUE(P.helpRequested());
}

TEST(ArgParser, PositionalsCollectedInOrder) {
  bool Dot = false;
  ArgParser P("t", "");
  P.flag("--dot", Dot, "dot");
  EXPECT_TRUE(parse(P, {"a.am", "--dot", "b.am"}));
  EXPECT_EQ(P.positional(),
            (std::vector<std::string>{"a.am", "b.am"}));
}

TEST(ArgParser, HelpTextListsEveryFlag) {
  bool Dot = false, Stats = false;
  std::string Pass, StatsValue;
  ArgParser P("amopt", "Optimizes things.");
  P.flag("--dot", Dot, "print DOT");
  P.option("--pass", Pass, "pass to run", "NAME");
  P.optionalValue("--stats", Stats, StatsValue, "dump stats", "json");

  std::string Help = P.helpText();
  EXPECT_NE(Help.find("usage: amopt"), std::string::npos);
  EXPECT_NE(Help.find("Optimizes things."), std::string::npos);
  EXPECT_NE(Help.find("--dot"), std::string::npos);
  EXPECT_NE(Help.find("--pass=NAME"), std::string::npos);
  EXPECT_NE(Help.find("--stats[=json]"), std::string::npos);
  EXPECT_NE(Help.find("--help"), std::string::npos);
  EXPECT_NE(Help.find("print DOT"), std::string::npos);
}

TEST(ArgParser, UsageLineNamesOnlyTheGivenPositionals) {
  auto UsageLine = [](const ArgParser &P) {
    std::string Help = P.helpText();
    return Help.substr(0, Help.find('\n'));
  };
  EXPECT_EQ(UsageLine(ArgParser("amtrend", "Reads history.")),
            "usage: amtrend [flags]");
  EXPECT_EQ(UsageLine(ArgParser("amopt", "Optimizes.", "[FILE]")),
            "usage: amopt [flags] [FILE]");
  EXPECT_EQ(UsageLine(ArgParser("ambatch", "", "[FILE|DIR ...]")),
            "usage: ambatch [flags] [FILE|DIR ...]");
}

} // namespace
