// Differential test: PerfLogEntry::parse and the streaming readers must
// agree with the frozen pre-rewrite parser (perflog_oracle.hpp) on every
// line — each field, doubles bit for bit, and on a throw the exception's
// dynamic type and what() text.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>
#include <typeinfo>

#include "core/framework/perflog.hpp"
#include "core/util/rng.hpp"
#include "perflog_oracle.hpp"

namespace rebench {
namespace {

struct Outcome {
  std::optional<PerfLogEntry> entry;
  std::string type;  // dynamic exception type, when parsing threw
  std::string what;
};

template <typename Parse>
Outcome outcomeOf(Parse parse, const std::string& line) {
  try {
    return {parse(line), {}, {}};
  } catch (const std::exception& e) {
    return {std::nullopt, typeid(e).name(), e.what()};
  }
}

/// Parses `line` with both parsers and checks they agree; returns whether
/// the line parsed.
bool expectParity(const std::string& line) {
  const Outcome want = outcomeOf(&oracle::parse, line);
  const Outcome got = outcomeOf(
      [](const std::string& l) { return PerfLogEntry::parse(l); }, line);
  EXPECT_EQ(got.entry.has_value(), want.entry.has_value()) << line;
  EXPECT_EQ(got.type, want.type) << line;
  EXPECT_EQ(got.what, want.what) << line;
  if (got.entry && want.entry) {
    EXPECT_TRUE(oracle::sameEntry(*got.entry, *want.entry))
        << line << "\n  got:  " << got.entry->serialize()
        << "\n  want: " << want.entry->serialize();
  }
  return want.entry.has_value();
}

std::string tempPath(const std::string& stem) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("perflog_parity_" + stem))
      .string();
}

TEST(PerflogParity, BenchShapedCorpusMatchesOracle) {
  for (const std::string& line : oracle::benchShapedCorpus(7, 40)) {
    ASSERT_TRUE(expectParity(line));
  }
}

// ---- randomized: nasty content, nasty keys, x: extras -----------------------

std::string randomNasty(Rng& rng) {
  static constexpr char kAlphabet[] =
      "abc|=%\n\t ,\"'\\0123<>&^~+@:$";
  std::string out;
  const std::uint64_t length = rng.below(24);
  for (std::uint64_t i = 0; i < length; ++i) {
    out += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  }
  return out;
}

std::string randomKey(Rng& rng) {
  static const char* kKeys[] = {
      "ts",     "version", "system", "partition", "environ", "test",
      "spec",   "spec_hash", "binary_id", "job_id", "fom",   "value",
      "unit",   "ref",     "lower",  "upper",     "result",  "x:",
      "%74s",   "x%3a",    "X:",     "tes",       "values",  "%"};
  switch (rng.below(4)) {
    case 0: return randomNasty(rng);
    case 1: return "x:" + randomNasty(rng);
    default: return kKeys[rng.below(std::size(kKeys))];
  }
}

std::string randomNumber(Rng& rng) {
  static const char* kNumbers[] = {
      "1.5", "-0", "0.000000", "1.", ".5", "-.", "1-2", "00012.50", "",
      "-",   " 1", "1e3", "+2", "0x10", "inf", "-nan", "1.5abc", "12.5%"};
  const double x = rng.uniform(-1e6, 1e6);
  char buf[64];
  switch (rng.below(4)) {
    case 0: std::snprintf(buf, sizeof(buf), "%.6f", x); return buf;
    case 1: std::snprintf(buf, sizeof(buf), "%.17g", x); return buf;
    case 2: std::snprintf(buf, sizeof(buf), "%.25f", x * 1e-9); return buf;
    default: return kNumbers[rng.below(std::size(kNumbers))];
  }
}

std::string randomLine(Rng& rng) {
  if (rng.below(3) == 0) {
    // A well-formed record with nasty content, sometimes damaged.
    PerfLogEntry entry;
    entry.timestamp = randomNasty(rng);
    entry.system = randomNasty(rng);
    entry.spec = randomNasty(rng);
    entry.value = rng.uniform(-1e6, 1e6);
    if (rng.below(2) == 0) entry.reference = rng.uniform(-10, 10);
    entry.unit = Unit::kGBperSec;
    entry.extras[randomNasty(rng)] = randomNasty(rng);
    std::string line = entry.serialize();
    if (rng.below(2) == 0 && !line.empty()) {
      line[rng.below(line.size())] = "|=%x:"[rng.below(5)];
    }
    return line;
  }
  std::string line;
  const std::uint64_t fields = 1 + rng.below(6);
  for (std::uint64_t i = 0; i < fields; ++i) {
    if (i != 0) line += '|';
    const std::string key = randomKey(rng);
    const bool numeric = key == "value" || key == "ref" || key == "lower" ||
                         key == "upper";
    line += key;
    if (rng.below(8) != 0) line += '=';
    line += numeric ? randomNumber(rng) : randomNasty(rng);
  }
  return line;
}

class PerflogParityRandom : public ::testing::TestWithParam<int> {};

TEST_P(PerflogParityRandom, NastyLinesMatchOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 61);
  int parsed = 0;
  for (int i = 0; i < 1500; ++i) {
    if (expectParity(randomLine(rng))) ++parsed;
  }
  // Both outcomes must be exercised, not just one.
  EXPECT_GT(parsed, 100);
  EXPECT_LT(parsed, 1400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerflogParityRandom, ::testing::Range(1, 5));

// ---- fixed edge cases --------------------------------------------------------

TEST(PerflogParity, FixedEdgeCasesMatchOracle) {
  const std::string digits400 = "1" + std::string(399, '0');
  const std::string tiny = "0." + std::string(320, '0') + "1";
  const std::string tinier = "0." + std::string(400, '0') + "1";
  const std::vector<std::string> numbers = {
      " 1.5", "+1", "1e3", "0x1p3", "inf", "nan", "1.5abc", "", "-",
      "1e999", digits400, "-" + digits400, "1e-400", tiny, tinier, "-0",
      "0.0", "1.", ".5", "-.", "1-2", "--1", "00012.50",
      "1.7976931348623157e308", "179769313486231570" + std::string(291, '0'),
      "0.1000000000000000055511151231257827", "2.2250738585072014e-308",
      "%31.5", "1%00"};
  for (const std::string& number : numbers) {
    for (const char* key : {"value", "ref", "lower", "upper"}) {
      expectParity(std::string("ts=T1|") + key + "=" + number + "|unit=MB/s");
    }
  }
  const std::vector<std::string> lines = {
      "%4",
      "%zz",
      "ts=%4",
      "ts=%zz",
      "%zz=1",
      "system=ok%4",
      "a=1||b=2",
      "ts=1||system=2",
      "ts=T1|system=a|",
      "|ts=T1",
      "",
      "|",
      "=",
      "ts",
      "ts=T1|ts=T2|value=1|value=2|x:k=a|x:k=b",
      "x%3ak=escaped|x:=empty|x:a%3db=v",
      "%74s=escaped-key|unit=GB%2fs",
      "unknown=%zz",
      "unknown=ok",
      "x:k=%zz",
      "unit=furlongs",
      "ref=1|ref=2",
      "result=pass|result=a=b",
  };
  for (const std::string& line : lines) expectParity(line);
}

// ---- the streaming readers ---------------------------------------------------

/// What the lenient reader did before: copy every non-blank line, then
/// parse each, counting the ones that throw.
PerfLog::LenientParse oracleReadLenient(const std::string& path) {
  PerfLog::LenientParse out;
  for (const std::string& line : oracle::readLines(path)) {
    try {
      out.entries.push_back(oracle::parse(line));
    } catch (const std::exception&) {
      ++out.corruptLines;
    }
  }
  return out;
}

void expectSameEntries(const std::vector<PerfLogEntry>& got,
                       const std::vector<PerfLogEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(oracle::sameEntry(got[i], want[i])) << "row " << i;
  }
}

TEST(PerflogParity, ReadFileMatchesOracleLineByLine) {
  const std::string path = tempPath("read.log");
  const std::vector<std::string> lines = oracle::benchShapedCorpus(3, 4);
  {
    std::ofstream out(path);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      out << lines[i] << (i % 50 == 7 ? "\r\n" : "\n");
      if (i % 97 == 0) out << "\n  \t\n";
    }
    out << lines.front();  // no trailing newline
  }
  const PerfLog::LenientParse want = oracleReadLenient(path);
  ASSERT_EQ(want.corruptLines, 0u);
  expectSameEntries(PerfLog::readFile(path), want.entries);
  const PerfLog::LenientParse lenient = PerfLog::readFileLenient(path);
  EXPECT_EQ(lenient.corruptLines, 0u);
  expectSameEntries(lenient.entries, want.entries);
  std::remove(path.c_str());
}

TEST(PerflogParity, ReadFileLenientCountsCorruptLinesLikeOracle) {
  const std::string path = tempPath("lenient.log");
  Rng rng(11);
  {
    std::ofstream out(path);
    for (const std::string& line : oracle::benchShapedCorpus(5, 2)) {
      out << line << "\n";
      if (rng.below(4) == 0) out << randomLine(rng) << "\n";
    }
  }
  const PerfLog::LenientParse want = oracleReadLenient(path);
  EXPECT_GT(want.corruptLines, 0u);
  const PerfLog::LenientParse got = PerfLog::readFileLenient(path);
  EXPECT_EQ(got.corruptLines, want.corruptLines);
  expectSameEntries(got.entries, want.entries);
  std::remove(path.c_str());
}

TEST(PerflogParity, ReadFileStreamsFromAPipe) {
  // A FIFO cannot be read twice, so the reader must not rely on a
  // counting pass over it.
  const std::string path = tempPath("fifo");
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const std::vector<std::string> lines = oracle::benchShapedCorpus(9, 1);
  std::thread writer([&] {
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << "\n";
  });
  const std::vector<PerfLogEntry> got = PerfLog::readFile(path);
  writer.join();
  ASSERT_EQ(got.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_TRUE(oracle::sameEntry(got[i], oracle::parse(lines[i])));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rebench
