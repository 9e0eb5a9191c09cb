// Durable file I/O and the run journal (rebench::fault).
//
// The run journal, the serve write-ahead journal and the object-store
// index are append-only JSONL logs that all open through `openJsonLog`.
//
// A suite run appends one JSONL record per completed (test, target,
// repeat) tuple to DIR/journal.jsonl; a killed campaign restarted with
// --resume DIR loads the journal and executes only the tuples that are
// not yet recorded.  Appends are *durable*: each line is written and
// fsynced before record() returns, so a crash can lose at most the line
// being written — never a previously acknowledged one (losing an
// acknowledged tuple would double-execute it on resume).
//
// Schema (one JSON object per line):
//   {"kind":"meta","schema":"rebench.journal/1"}
//   {"kind":"run","test":T,"target":"sys:part","repeat":N,
//    "outcome":"pass"|"fail"|"quarantined","stage":S,"attempts":A}
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>

namespace rebench {

namespace obs::json {
struct Value;
}  // namespace obs::json

inline constexpr std::string_view kJournalSchema = "rebench.journal/1";

/// Appends `line` (a trailing '\n' is added when missing) to `path` and
/// flushes it to stable storage (write + fsync) before returning, so an
/// acknowledged journal record survives a crash.  Creates the file when
/// absent.  Throws rebench::Error on I/O failure.
void durableAppendLine(const std::string& path, std::string_view line);

/// Writes `bytes` to `path` durably and atomically: the content lands in
/// `path + ".tmp"`, is fsynced, and is renamed over `path`, so readers
/// observe either the old file or the complete new one — never a torn
/// write.  Throws rebench::Error on I/O failure.
void durableWriteFile(const std::string& path, std::string_view bytes);

/// The whole content of `path`, or nullopt when it cannot be opened.
std::optional<std::string> readWholeFile(const std::string& path);

/// Opens the append-only JSONL log at `path` and replays it: calls
/// `visit` on every record that parses to a JSON object, in file order,
/// except meta lines.  An absent file is created holding one durable
/// `{"kind":"meta","schema":schema}` line.  Blank lines are skipped.
/// Unparseable lines (the torn tail of a crash mid-append) are dropped
/// and, when there are any — or the last line lacks its newline — the
/// file is rewritten through durableWriteFile holding only the intact
/// lines.  Returns the number of unparseable lines.  Throws
/// rebench::Error when the file cannot be created or read, or a meta
/// line names another schema.
std::size_t openJsonLog(
    const std::string& path, std::string_view schema,
    const std::function<void(const obs::json::Value&)>& visit);

class RunJournal {
 public:
  /// Opens DIR/journal.jsonl through openJsonLog, creating DIR when
  /// absent, and loads already-recorded tuples; torn lines are counted
  /// in corruptLines() and truncated away.
  explicit RunJournal(const std::string& dir);

  static std::string pathFor(const std::string& dir);

  bool contains(std::string_view test, std::string_view target,
                int repeat) const;

  /// Appends one completed tuple durably (write + fsync per line).
  void record(std::string_view test, std::string_view target, int repeat,
              std::string_view outcome, std::string_view stage,
              int attempts);

  /// Number of completed tuples currently journaled.
  std::size_t size() const { return keys_.size(); }

  /// Unparseable lines dropped while loading (e.g. a truncated tail).
  std::size_t corruptLines() const { return corruptLines_; }

  const std::string& path() const { return path_; }

 private:
  static std::string key(std::string_view test, std::string_view target,
                         int repeat);

  std::string path_;
  std::set<std::string> keys_;
  std::size_t corruptLines_ = 0;
};

}  // namespace rebench
