#include "cli/args.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

namespace rebench::cli {
namespace {

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "rebench");
  return Args::parse(static_cast<int>(argv.size()), argv.data());
}

/// The UsageError message of parsing `argv` ("" when it parses).
std::string usageError(std::vector<const char*> argv) {
  try {
    parse(std::move(argv));
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(CliArgs, SubcommandAndPositionals) {
  const Args args = parse({"spec", "hpgmg%gcc"});
  EXPECT_EQ(args.subcommand(), "spec");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "hpgmg%gcc");
}

TEST(CliArgs, EmptyCommandLine) {
  const Args args = parse({});
  EXPECT_TRUE(args.subcommand().empty());
}

TEST(CliArgs, OptionWithSeparateValue) {
  const Args args = parse({"run", "--system", "archer2"});
  EXPECT_EQ(args.option("system").value_or("local"), "archer2");
}

TEST(CliArgs, OptionWithEqualsValue) {
  const Args args = parse({"run", "--system=noctua2"});
  EXPECT_EQ(args.option("system").value_or("local"), "noctua2");
}

TEST(CliArgs, MissingOptionFallsBack) {
  const Args args = parse({"run"});
  EXPECT_FALSE(args.option("system").has_value());
  EXPECT_EQ(args.option("system").value_or("local"), "local");
  EXPECT_EQ(args.intOptionOr("repeats", 7), 7);
  EXPECT_EQ(args.doubleOptionOr("ci-halfwidth", -1.0), -1.0);
}

TEST(CliArgs, FlagWithoutValue) {
  const Args args = parse({"run", "--verbose", "--system", "csd3"});
  EXPECT_TRUE(args.hasFlag("verbose"));
  EXPECT_FALSE(args.hasFlag("no-cache"));
  EXPECT_EQ(args.option("system").value_or(""), "csd3");
}

TEST(CliArgs, TrailingOptionIsFlag) {
  const Args args = parse({"history", "--detect"});
  EXPECT_TRUE(args.hasFlag("detect"));
}

TEST(CliArgs, SettingsCollectInOrder) {
  const Args args =
      parse({"run", "-S", "model=omp", "-S", "array_size=1024"});
  ASSERT_EQ(args.settings().size(), 2u);
  EXPECT_EQ(args.settings()[0].first, "model");
  EXPECT_EQ(args.settings()[0].second, "omp");
  EXPECT_EQ(args.settings()[1].first, "array_size");
  EXPECT_EQ(args.settings()[1].second, "1024");
}

TEST(CliArgs, PaperStyleInvocation) {
  // Mirrors the appendix: -S spack_spec='babelstream%gcc@9.2.0 +omp'
  const Args args = parse({"run", "--benchmark", "babelstream",
                           "--system=isambard-macs:cascadelake", "-S",
                           "model=omp", "--repeats", "3"});
  EXPECT_EQ(args.option("benchmark").value_or(""), "babelstream");
  EXPECT_EQ(args.option("system").value_or(""), "isambard-macs:cascadelake");
  EXPECT_EQ(args.intOptionOr("repeats", 1), 3);
}

TEST(CliArgs, IntOptionValidation) {
  EXPECT_THROW(parse({"run", "--repeats", "banana"}), UsageError);
  EXPECT_THROW(parse({"run", "--repeats", "3x"}), UsageError);
  EXPECT_THROW(parse({"run", "--repeats", "99999999999"}), UsageError);
  EXPECT_NE(usageError({"suite", "--jobs", "abc"}).find("--jobs"),
            std::string::npos);
  EXPECT_EQ(parse({"run", "--repeats", "12"}).intOptionOr("repeats", 1), 12);
}

TEST(CliArgs, MalformedSettings) {
  EXPECT_THROW(parse({"run", "-S"}), UsageError);
  EXPECT_THROW(parse({"run", "-S", "noequals"}), UsageError);
  EXPECT_THROW(parse({"run", "-S", "=value"}), UsageError);
  EXPECT_THROW(parse({"run", "--"}), UsageError);
}

TEST(CliArgs, NegativeNumbersAreNotOptionValues) {
  // A valued flag always consumes the next token, so `--repeats -3` is
  // the value -3, which the count bound rejects (no flag/value guessing).
  EXPECT_NE(usageError({"run", "--repeats", "-3"}).find("must be >= 1"),
            std::string::npos);
  EXPECT_NE(usageError({"run", "--retries", "-1"}).find("must be >= 0"),
            std::string::npos);
  EXPECT_NE(usageError({"history", "--sigmas", "-2"}).find("must be > 0"),
            std::string::npos);
  EXPECT_EQ(parse({"run", "--perflog", "-odd.log"}).option("perflog"),
            "-odd.log");
}

TEST(CliArgs, UnknownFlagsAndSubcommandsAreUsageErrors) {
  EXPECT_NE(usageError({"suite", "--tga", "hpcg"}).find("--tga"),
            std::string::npos);
  EXPECT_NE(usageError({"run", "--tag", "hpcg"}).find("--tag"),
            std::string::npos);
  EXPECT_NE(usageError({"run", "-q"}).find("-q"), std::string::npos);
  EXPECT_THROW(parse({"frobnicate"}), UsageError);
}

TEST(CliArgs, ShortSelectionFlagsTakeValues) {
  const Args args =
      parse({"suite", "--tag", "hpcg", "-x", "lfric", "-n", "HPCG"});
  EXPECT_EQ(args.option("x").value_or(""), "lfric");
  EXPECT_EQ(args.option("n").value_or(""), "HPCG");
  EXPECT_TRUE(args.positionals().empty());
}

TEST(CliArgs, SwitchesNeverSwallowOperands) {
  const Args spec = parse({"spec", "--trace", "hpgmg%gcc", "--system", "x"});
  EXPECT_TRUE(spec.hasFlag("trace"));
  ASSERT_EQ(spec.positionals().size(), 1u);
  EXPECT_EQ(spec.positionals()[0], "hpgmg%gcc");
  const Args history = parse({"history", "--check", "T", "noctua2:cpu"});
  EXPECT_TRUE(history.hasFlag("check"));
  EXPECT_EQ(history.positionals().size(), 2u);
  EXPECT_NE(usageError({"serve", "--queue", "q", "--once=1"}).find("--once"),
            std::string::npos);
}

TEST(CliArgs, ChoicesAndBoundsComeFromTheTable) {
  EXPECT_NE(usageError({"run", "--probe", "bogus"}).find("sim|real"),
            std::string::npos);
  EXPECT_NE(usageError({"suite", "--ci-halfwidth", "0"}).find("must be > 0"),
            std::string::npos);
  EXPECT_NE(usageError({"compare", "--threshold", "x"}).find("--threshold"),
            std::string::npos);
  EXPECT_NE(usageError({"suite", "--ci-halfwidth", "inf"}).find("number"),
            std::string::npos);
  EXPECT_EQ(parse({"history", "--threshold", "0"}).doubleOptionOr("threshold",
                                                                   1.0),
            0.0);
}

TEST(CliArgs, OperandsAndRequiredFlags) {
  EXPECT_NE(usageError({"spec"}).find("<spec>"), std::string::npos);
  EXPECT_NE(usageError({"spec", "a", "b"}).find("'b'"), std::string::npos);
  EXPECT_NE(usageError({"compare", "--before", "a"}).find("--after"),
            std::string::npos);
  EXPECT_NE(usageError({"status"}).find("--queue"), std::string::npos);
  EXPECT_EQ(usageError({"history", "T", "target"}), "");
}

TEST(CliArgs, SettingsTableChecksValues) {
  EXPECT_NO_THROW(checkSetting("array_size", "1024"));
  EXPECT_NO_THROW(checkSetting("operator", "lfric"));
  EXPECT_NO_THROW(checkSetting("model", "omp"));
  EXPECT_THROW(checkSetting("array_size", "abc"), UsageError);
  EXPECT_THROW(checkSetting("grid", "-5"), UsageError);
  EXPECT_THROW(checkSetting("num_tasks", "0"), UsageError);
  EXPECT_THROW(checkSetting("operator", "dense"), UsageError);
  EXPECT_THROW(checkSetting("arraysize", "1024"), UsageError);
}

TEST(CliArgs, EachFlagDeclaredOnceAndDocumented) {
  const std::string usage = usageText();
  for (const Command& command : commands()) {
    std::set<std::string_view> names;
    for (const Flag& flag : command.flags) {
      EXPECT_TRUE(names.insert(flag.name).second)
          << command.name << " declares " << flag.name << " twice";
      const std::string spelled =
          (flag.name.size() == 1 ? "-" : "--") + std::string(flag.name);
      EXPECT_NE(usage.find(spelled), std::string::npos) << spelled;
      EXPECT_FALSE(flag.help.empty()) << spelled;
    }
  }
  for (const char* missingBefore : {"--ntimes", "--backoff-mult", "--verbose"}) {
    EXPECT_NE(usage.find(missingBefore), std::string::npos) << missingBefore;
  }
}

// Property: random argvs built from each subcommand's own flags plus junk
// (missing values, non-numeric and negative numbers, unknown flags, stray
// operands) either parse into values the table admits or throw UsageError.
TEST(CliArgs, RandomArgvEitherParsesOrThrowsUsageError) {
  const std::vector<std::string> junk = {
      "--tga", "-q",   "--",  "-",     "x",     "3",   "-3",  "0",   "abc",
      "2.5",   "1e309", "nan", "-0.0", "k=v",   "=",   "",    "--=", "-S",
      "-Sx=1", "99999999999"};
  std::mt19937 rng(20230415);
  int parsed = 0;
  int rejected = 0;
  for (const Command& command : commands()) {
    std::vector<std::string> vocabulary = junk;
    for (const Flag& flag : command.flags) {
      const std::string spelled =
          (flag.name.size() == 1 ? "-" : "--") + std::string(flag.name);
      vocabulary.push_back(spelled);
      vocabulary.push_back(spelled + "=1");
      vocabulary.push_back(spelled + "=x");
    }
    for (int trial = 0; trial < 1200; ++trial) {
      std::vector<std::string> tokens{std::string(command.name)};
      const int length = static_cast<int>(rng() % 7);
      for (int i = 0; i < length; ++i) {
        tokens.push_back(vocabulary[rng() % vocabulary.size()]);
      }
      std::vector<const char*> argv{"rebench"};
      for (const std::string& token : tokens) argv.push_back(token.c_str());
      try {
        const Args args =
            Args::parse(static_cast<int>(argv.size()), argv.data());
        ++parsed;
        const auto operands = static_cast<int>(args.positionals().size());
        EXPECT_GE(operands, command.minOperands);
        EXPECT_LE(operands, command.maxOperands);
        for (const Flag& flag : command.flags) {
          if (flag.required) {
            EXPECT_TRUE(args.hasFlag(flag.name)) << flag.name;
          }
          if (!args.hasFlag(flag.name)) continue;
          if (flag.kind == Kind::kCount) {
            EXPECT_GE(args.intOptionOr(flag.name, 0), 1);
          } else if (flag.kind == Kind::kInt) {
            EXPECT_GE(args.intOptionOr(flag.name, 0), 0);
          } else if (flag.kind == Kind::kNumber) {
            EXPECT_GE(args.doubleOptionOr(flag.name, 0.0), 0.0);
          } else if (flag.kind == Kind::kPositive) {
            EXPECT_GT(args.doubleOptionOr(flag.name, 0.0), 0.0);
          }
        }
      } catch (const UsageError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-usage exception for " << command.name << ": "
                      << e.what();
      }
    }
  }
  // Both outcomes must actually occur, or the property says nothing.
  EXPECT_GT(parsed, 1000);
  EXPECT_GT(rejected, 1000);
}

}  // namespace
}  // namespace rebench::cli
