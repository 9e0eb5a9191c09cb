// Performance gate: the perflog parser against its frozen predecessor
// (tests/core/perflog_oracle.hpp) on a 25,920-row corpus shaped like the
// end-to-end benchmark's analyst perflog.  Both must yield identical
// entries (every field, doubles bit for bit), and parsing must be at
// least 2x faster.  Times are the minimum of several interleaved
// repetitions, and the bar is a ratio of two runs on the same machine, so
// it holds on a loaded host.  readFile (I/O included) against the old
// read-all-lines-then-parse reader is reported alongside.
//
//   perflog_parse_gate        prints PERFLOG PARSE GATE OK, or exits 1
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "../core/perflog_oracle.hpp"
#include "core/framework/perflog.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using rebench::PerfLogEntry;

constexpr std::size_t kPoints = 120;  // x 216 series = 25,920 rows
constexpr int kRepetitions = 7;
constexpr double kMinSpeedup = 2.0;

template <typename Fn>
double millis(Fn fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The reader as it was: every non-blank line copied, then parsed.
std::vector<PerfLogEntry> oracleReadFile(const std::string& path) {
  const std::vector<std::string> lines = rebench::oracle::readLines(path);
  std::vector<PerfLogEntry> out;
  out.reserve(lines.size());
  for (const std::string& l : lines) out.push_back(rebench::oracle::parse(l));
  return out;
}

bool sameEntries(const std::vector<PerfLogEntry>& a,
                 const std::vector<PerfLogEntry>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), rebench::oracle::sameEntry);
}

}  // namespace

int main() {
  const std::vector<std::string> lines =
      rebench::oracle::benchShapedCorpus(1, kPoints);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("perflog_parse_gate_" + std::to_string(::getpid()) + ".log"))
          .string();
  {
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << '\n';
  }

  double oracleParse = 1e300, newParse = 1e300;
  double oracleRead = 1e300, newRead = 1e300;
  bool identical = true;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    // Each result lands in an empty vector and is freed after its
    // comparison, so no timed region pays for destroying entries.
    {
      std::vector<PerfLogEntry> want, got;
      oracleParse = std::min(oracleParse, millis([&] {
        want.reserve(lines.size());
        for (const std::string& l : lines) {
          want.push_back(rebench::oracle::parse(l));
        }
      }));
      newParse = std::min(
          newParse, millis([&] { got = rebench::PerfLog::parseLines(lines); }));
      identical = identical && sameEntries(got, want);
    }
    {
      std::vector<PerfLogEntry> want, got;
      oracleRead =
          std::min(oracleRead, millis([&] { want = oracleReadFile(path); }));
      newRead = std::min(
          newRead, millis([&] { got = rebench::PerfLog::readFile(path); }));
      identical = identical && sameEntries(got, want);
    }
  }
  std::filesystem::remove(path);

  const double parseSpeedup = oracleParse / newParse;
  const double readSpeedup = oracleRead / newRead;
  std::printf("rows: %zu, best of %d\n", lines.size(), kRepetitions);
  std::printf("parse:    oracle %.2f ms, new %.2f ms, speedup %.2fx\n",
              oracleParse, newParse, parseSpeedup);
  std::printf("readFile: oracle %.2f ms, new %.2f ms, speedup %.2fx\n",
              oracleRead, newRead, readSpeedup);
  if (!identical) {
    std::printf("FAIL: entries differ from the oracle's\n");
    return 1;
  }
  if (parseSpeedup < kMinSpeedup) {
    std::printf("FAIL: parse speedup %.2fx below %.1fx\n", parseSpeedup,
                kMinSpeedup);
    return 1;
  }
  std::printf("PERFLOG PARSE GATE OK\n");
  return 0;
}
