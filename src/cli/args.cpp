#include "cli/args.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "core/util/strings.hpp"

namespace rebench::cli {
namespace {

std::string spelling(const Flag& flag) {
  return (flag.name.size() == 1 ? "-" : "--") + std::string(flag.name);
}

const Flag* findFlag(std::span<const Flag> table, std::string_view name) {
  const auto it = std::find_if(table.begin(), table.end(),
                               [&](const Flag& f) { return f.name == name; });
  return it == table.end() ? nullptr : &*it;
}

template <typename T>
std::optional<T> fromChars(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Throws UsageError, naming the flag or setting `what`, unless `value`
/// has the row's kind and lies within its bound.
void checkValue(const Flag& flag, std::string_view what,
                std::string_view value) {
  const std::string quoted = std::string("'").append(value).append("'");
  if (flag.kind == Kind::kChoice) {
    for (const std::string& choice : str::split(flag.meta, '|')) {
      if (choice == value) return;
    }
    throw UsageError(std::string(what) + " must be one of " +
                     std::string(flag.meta) + ", got " + quoted);
  }
  const bool integer = flag.kind == Kind::kInt || flag.kind == Kind::kCount;
  if (!integer && flag.kind != Kind::kNumber && flag.kind != Kind::kPositive) {
    return;
  }
  std::optional<double> number;
  if (integer) {
    if (const auto n = fromChars<int>(value)) number = *n;
  } else if (const auto x = fromChars<double>(value); x && std::isfinite(*x)) {
    number = *x;
  }
  if (!number) {
    throw UsageError(std::string(what) +
                     (integer ? " expects an integer" : " expects a number") +
                     ", got " + quoted);
  }
  const bool positive =
      flag.kind == Kind::kCount || flag.kind == Kind::kPositive;
  if (positive ? *number <= 0 : *number < 0) {
    throw UsageError(std::string(what) + " must be " +
                     (!positive ? ">= 0" : integer ? ">= 1" : "> 0") +
                     " (got " + std::string(value) + ")");
  }
}

}  // namespace

void checkSetting(std::string_view key, std::string_view value) {
  const Flag* row = findFlag(settingsTable(), key);
  if (row == nullptr) {
    throw UsageError("-S: unknown setting '" + std::string(key) + "'");
  }
  checkValue(*row, "-S " + std::string(key), value);
}

std::string usageText() {
  std::ostringstream out;
  out << "rebench — automated and reproducible benchmarking\n\n"
         "usage: rebench <subcommand> [operands] [flags]"
         " (a usage error exits 2)\n";
  const auto row = [&out](std::size_t indent, const std::string& left,
                          const Flag& flag) {
    out << std::string(indent, ' ') << str::padRight(left, 34 - indent)
        << " " << flag.help << (flag.required ? " (required)" : "") << "\n";
  };
  for (const Command& command : commands()) {
    out << "\n" << command.name << (command.operands.empty() ? "" : " ")
        << command.operands << "\n    " << command.summary << "\n";
    for (const Flag& flag : command.flags) {
      const std::string meta(flag.meta);
      row(2, spelling(flag) + (meta.empty() ? "" : " " + meta), flag);
      if (flag.kind != Kind::kSetting) continue;
      for (const Flag& setting : settingsTable()) {
        row(6, std::string(setting.name) + "=" + std::string(setting.meta),
            setting);
      }
    }
  }
  return out.str();
}

Args Args::parse(int argc, const char* const* argv) {
  Args args;
  if (argc < 2) return args;
  args.subcommand_ = argv[1];
  const auto& table = commands();
  const auto command = std::find_if(
      table.begin(), table.end(),
      [&](const Command& c) { return c.name == args.subcommand_; });
  if (command == table.end()) throw UsageError("unknown subcommand");
  for (int i = 2; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (token.size() < 2 || token[0] != '-') {
      args.positionals_.emplace_back(token);
      continue;
    }
    // --name, --name=value or one-letter -n.  A valued flag always takes
    // the next token, even one starting with '-' (`--repeats -3`).
    const bool isLong = token[1] == '-';
    std::string_view name = token.substr(isLong ? 2 : 1);
    std::optional<std::string_view> inlineValue;
    if (const std::size_t eq = name.find('=');
        isLong && eq != std::string_view::npos) {
      inlineValue = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const Flag* flag = isLong == (name.size() > 1)
                           ? findFlag(command->flags, name)
                           : nullptr;
    if (flag == nullptr) throw UsageError("unknown flag " + std::string(token));
    const std::string spelled = spelling(*flag);
    if (flag->kind == Kind::kSwitch) {
      if (inlineValue) throw UsageError(spelled + " takes no value");
      args.values_[std::string(name)] = "";
      continue;
    }
    if (!inlineValue && i + 1 >= argc) {
      throw UsageError(spelled + " expects " + std::string(flag->meta));
    }
    const std::string value(inlineValue ? *inlineValue : argv[++i]);
    if (flag->kind == Kind::kSetting) {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw UsageError(spelled + " expects key=value, got '" + value + "'");
      }
      args.settings_.emplace_back(value.substr(0, eq), value.substr(eq + 1));
      continue;
    }
    checkValue(*flag, spelled, value);
    args.values_[std::string(name)] = value;
  }
  const auto count = static_cast<int>(args.positionals_.size());
  if (count < command->minOperands) {
    throw UsageError("missing " + std::string(command->operands));
  }
  if (count > command->maxOperands) {
    throw UsageError("unexpected operand '" +
                     args.positionals_[command->maxOperands] + "'");
  }
  for (const Flag& flag : command->flags) {
    if (flag.required && !args.values_.contains(flag.name)) {
      throw UsageError(spelling(flag) + " " + std::string(flag.meta) +
                       " is required");
    }
  }
  return args;
}

bool Args::hasFlag(std::string_view name) const {
  return values_.contains(name);
}

std::optional<std::string> Args::option(std::string_view name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

int Args::intOptionOr(std::string_view name, int fallback) const {
  const auto value = option(name);
  if (!value) return fallback;
  const auto n = fromChars<int>(*value);
  REBENCH_REQUIRE(n.has_value());  // only kInt rows are read as integers
  return *n;
}

double Args::doubleOptionOr(std::string_view name, double fallback) const {
  const auto value = option(name);
  if (!value) return fallback;
  const auto x = fromChars<double>(*value);
  REBENCH_REQUIRE(x.has_value());  // only numeric rows are read as numbers
  return *x;
}

}  // namespace rebench::cli
