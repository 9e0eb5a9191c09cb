// Test-only oracle: the perflog line parser as it was before the
// single-pass rewrite (split on '|', copy every key and value, compare the
// key against each name in turn, std::stod every number), frozen here so
// the rewrite can be checked against it field by field and timed against
// it.  Never linked into rebench_core.
#pragma once

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/framework/perflog.hpp"
#include "core/util/error.hpp"
#include "core/util/rng.hpp"
#include "core/util/strings.hpp"

namespace rebench::oracle {

inline int hexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw ParseError("bad escape in perflog line");
}

inline std::string unescape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '%') {
      if (i + 2 >= raw.size()) throw ParseError("truncated escape");
      out += static_cast<char>(hexVal(raw[i + 1]) * 16 + hexVal(raw[i + 2]));
      i += 2;
    } else {
      out += raw[i];
    }
  }
  return out;
}

inline PerfLogEntry parse(const std::string& line) {
  PerfLogEntry entry;
  for (const std::string& field : str::split(line, '|')) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw ParseError("malformed perflog field: '" + field + "'");
    }
    const std::string key = unescape(field.substr(0, eq));
    const std::string value = unescape(field.substr(eq + 1));
    if (key == "ts") entry.timestamp = value;
    else if (key == "version") entry.frameworkVersion = value;
    else if (key == "system") entry.system = value;
    else if (key == "partition") entry.partition = value;
    else if (key == "environ") entry.environ = value;
    else if (key == "test") entry.testName = value;
    else if (key == "spec") entry.spec = value;
    else if (key == "spec_hash") entry.specHash = value;
    else if (key == "binary_id") entry.binaryId = value;
    else if (key == "job_id") entry.jobId = value;
    else if (key == "fom") entry.fomName = value;
    else if (key == "value") entry.value = std::stod(value);
    else if (key == "unit") entry.unit = unitFromName(value);
    else if (key == "ref") entry.reference = std::stod(value);
    else if (key == "lower") entry.lowerThresh = std::stod(value);
    else if (key == "upper") entry.upperThresh = std::stod(value);
    else if (key == "result") entry.result = value;
    else if (str::startsWith(key, "x:")) entry.extras[key.substr(2)] = value;
    else throw ParseError("unknown perflog key: '" + key + "'");
  }
  return entry;
}

/// The old readers' first step: every non-blank line of `path`, copied.
inline std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!str::trim(line).empty()) lines.push_back(line);
  }
  return lines;
}

// ---- shared by the parity test and the perf gate ---------------------------

inline bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every field equal, doubles bit for bit.
inline bool sameEntry(const PerfLogEntry& a, const PerfLogEntry& b) {
  return a.timestamp == b.timestamp &&
         a.frameworkVersion == b.frameworkVersion && a.system == b.system &&
         a.partition == b.partition && a.environ == b.environ &&
         a.testName == b.testName && a.spec == b.spec &&
         a.specHash == b.specHash && a.binaryId == b.binaryId &&
         a.jobId == b.jobId && a.fomName == b.fomName &&
         sameBits(a.value, b.value) && a.unit == b.unit &&
         a.reference.has_value() == b.reference.has_value() &&
         (!a.reference || sameBits(*a.reference, *b.reference)) &&
         sameBits(a.lowerThresh, b.lowerThresh) &&
         sameBits(a.upperThresh, b.upperThresh) && a.result == b.result &&
         a.extras == b.extras;
}

/// `prefix` followed by `n` in decimal.
inline std::string numbered(const char* prefix, std::size_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

/// A perflog shaped like the end-to-end benchmark's analyst corpus: six
/// systems x 12 tests x 3 FOMs per point, MB/s values around seeded
/// per-series baselines, one line per row.
inline std::vector<std::string> benchShapedCorpus(std::uint64_t seed,
                                                  std::size_t points) {
  static const char* systems[] = {"archer2",  "cosma8",        "csd3",
                                  "isambard", "isambard-macs", "noctua2"};
  static const char* foms[] = {"Copy", "Triad", "Dot"};
  Rng rng(seed);
  std::vector<double> base(std::size(systems) * 12 * 3);
  for (double& value : base) value = 1000.0 + 9000.0 * rng.uniform();
  std::vector<std::string> lines;
  std::size_t stamp = 0;
  for (std::size_t point = 0; point < points; ++point) {
    std::size_t series = 0;
    for (const char* system : systems) {
      for (std::size_t t = 0; t < 12; ++t) {
        for (const char* fom : foms) {
          PerfLogEntry entry;
          entry.timestamp = numbered("T", stamp++);
          entry.system = system;
          entry.partition = "compute";
          entry.environ = "gcc@11.2.0";
          entry.testName = numbered("SuiteTest_", t);
          entry.spec = "bench@1.0%gcc@11.2.0";
          entry.specHash = numbered("h", series);
          entry.binaryId = numbered("b", series);
          entry.jobId = std::to_string(stamp);
          entry.fomName = fom;
          entry.value = base[series] * (1.0 + 0.03 * (rng.uniform() - 0.5));
          entry.unit = Unit::kMBperSec;
          entry.result = "pass";
          lines.push_back(entry.serialize());
          ++series;
        }
      }
    }
  }
  return lines;
}

}  // namespace rebench::oracle
