// Performance logs ("perflogs", §2.4).
//
// Every (test, system, partition, FOM) measurement is appended as one line
// of `key=value|key=value|...` records.  The format is append-only,
// greppable, and machine-parseable — the property Principle 6 needs so that
// assimilation of results from isolated systems is a concatenation, not a
// transcription.
#pragma once

#include <istream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/util/strings.hpp"
#include "core/util/units.hpp"

namespace rebench {

struct PerfLogEntry {
  std::string timestamp;       // ISO-like or simulated-seconds stamp
  std::string frameworkVersion = "rebench-1.0.0";
  std::string system;
  std::string partition;
  std::string environ;         // "gcc@11.2.0"
  std::string testName;
  std::string spec;            // concretized short form
  std::string specHash;        // DAG hash (Principle 4)
  std::string binaryId;        // build provenance (Principle 3)
  std::string jobId;
  std::string fomName;
  double value = 0.0;
  Unit unit = Unit::kNone;
  std::optional<double> reference;
  double lowerThresh = 0.0;    // fractional, e.g. -0.05
  double upperThresh = 0.0;
  std::string result;          // "pass" | "fail" | "error"
  /// Free-form extras (num_tasks, array_size, ...).
  std::map<std::string, std::string> extras;

  std::string serialize() const;
  /// Reads one serialized line in a single pass over `line`: fields are
  /// sliced as views, each key goes straight to its member, and text is
  /// copied once, into that member.  Numbers are read exactly as
  /// std::stod reads them, so values, accepted inputs and exceptions are
  /// stod's: std::invalid_argument or std::out_of_range for a bad number,
  /// ParseError for a malformed field, a bad escape, an unknown key or an
  /// unknown unit.
  static PerfLogEntry parse(std::string_view line);
};

/// The one perflog line loop: calls `onLine(std::string_view)` with each
/// non-blank line of `in`, read through one reused buffer, so memory holds
/// one line, never the whole stream.  PerfLog::readFile, readFileLenient,
/// assimilatePerflogs and the colframe cache all split lines here.
template <typename OnLine>
void forEachPerflogLine(std::istream& in, OnLine&& onLine) {
  std::string line;
  while (std::getline(in, line)) {
    if (!str::trim(line).empty()) onLine(std::string_view(line));
  }
}

/// Lines in the regular file `path`, counted in fixed-size blocks so the
/// file is never held whole; 0 for a pipe or any stream that cannot be
/// read twice.  Readers reserve with it before forEachPerflogLine.
std::size_t countPerflogLines(const std::string& path);

/// Collects perflog lines in memory and/or appends them to a file.
class PerfLog {
 public:
  PerfLog() = default;
  /// When `path` is non-empty every append is also written to the file.
  explicit PerfLog(std::string path);

  void append(const PerfLogEntry& entry);
  const std::vector<std::string>& lines() const { return lines_; }
  std::size_t size() const { return lines_.size(); }

  /// Reads a perflog file back into entries, streaming it line by line;
  /// blank lines are skipped.
  static std::vector<PerfLogEntry> readFile(const std::string& path);
  static std::vector<PerfLogEntry> parseLines(
      const std::vector<std::string>& lines);

  /// Lenient variants for perflogs that survived crashes or corrupted
  /// stdout: unparseable lines are skipped and counted instead of
  /// aborting the whole read (the hygiene audit reports the count).
  struct LenientParse {
    std::vector<PerfLogEntry> entries;
    std::size_t corruptLines = 0;
  };
  static LenientParse readFileLenient(const std::string& path);
  static LenientParse parseLinesLenient(
      const std::vector<std::string>& lines);

 private:
  std::string path_;
  std::vector<std::string> lines_;
};

}  // namespace rebench
