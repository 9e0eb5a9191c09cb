// Declarative command-line parsing for the rebench CLI.  Each subcommand
// has one flag table (commands.cpp); parsing, value checks and the usage
// text are all generated from it.  The style mirrors the ReFrame command
// lines in the paper's appendix: --key value, --key=value, -S key=value.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/util/error.hpp"

namespace rebench::cli {

/// The one usage-error type (unknown flag, bad or missing value, missing
/// operand).  The CLI exits 2 on it; as a ParseError, serve files it as
/// a permanent failure.
class UsageError : public ParseError {
 public:
  using ParseError::ParseError;
};

/// A flag's value: none (kSwitch), text, an int >= 0, a count >= 1, a
/// finite number >= 0 or > 0 (kPositive), one of the '|'-separated words
/// in Flag::meta (kChoice), or -S's key=value (kSetting).
enum class Kind {
  kSwitch, kString, kInt, kCount, kNumber, kPositive, kChoice, kSetting
};

/// One table row.  A one-letter name is spelled -n, a longer one --name.
struct Flag {
  std::string_view name;
  Kind kind = Kind::kSwitch;
  std::string_view meta;  // value placeholder in the usage text
  std::string_view help;
  bool required = false;
};

struct Command {
  std::string_view name;
  std::string_view operands;  // usage synopsis, e.g. "<spec>"
  int minOperands = 0;
  int maxOperands = 0;
  std::string_view summary;
  std::vector<Flag> flags;
};

const std::vector<Command>& commands();

/// The keys `-S key=value` accepts, typed like flags.
std::span<const Flag> settingsTable();

std::string usageText();

/// Throws UsageError unless settingsTable() accepts `key=value`.
void checkSetting(std::string_view key, std::string_view value);

class Args {
 public:
  /// argv[1] names the subcommand; the rest must match its table.  An
  /// empty command line gives an empty subcommand; anything the table
  /// rejects throws UsageError.
  static Args parse(int argc, const char* const* argv);

  const std::string& subcommand() const { return subcommand_; }
  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Values were checked by parse(), so the typed getters never throw on
  /// user input.
  bool hasFlag(std::string_view name) const;
  std::optional<std::string> option(std::string_view name) const;
  int intOptionOr(std::string_view name, int fallback) const;
  double doubleOptionOr(std::string_view name, double fallback) const;

  /// All -S key=value settings, in order (ReFrame's -S).
  const std::vector<std::pair<std::string, std::string>>& settings() const {
    return settings_;
  }

 private:
  std::string subcommand_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string, std::less<>> values_;  // switches: ""
  std::vector<std::pair<std::string, std::string>> settings_;
};

}  // namespace rebench::cli
