#include "core/fault/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/obs/json.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

/// Writes all of `bytes` to `fd`, retrying short writes.
void writeAll(int fd, const std::string& path, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      ::close(fd);
      throw Error("cannot write journal '" + path + "'");
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace

void durableAppendLine(const std::string& path, std::string_view line) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw Error("cannot open journal '" + path + "' for append");
  }
  std::string bytes(line);
  if (bytes.empty() || bytes.back() != '\n') bytes += '\n';
  writeAll(fd, path, bytes);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw Error("cannot fsync journal '" + path + "'");
  }
  ::close(fd);
}

void durableWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw Error("cannot create file '" + tmp + "'");
  writeAll(fd, tmp, bytes);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw Error("cannot fsync file '" + tmp + "'");
  }
  ::close(fd);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw Error("cannot rename '" + tmp + "' to '" + path +
                "': " + ec.message());
  }
}

std::optional<std::string> readWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

std::size_t openJsonLog(
    const std::string& path, std::string_view schema,
    const std::function<void(const obs::json::Value&)>& visit) {
  if (!std::filesystem::exists(path)) {
    durableAppendLine(path, "{\"kind\":\"meta\",\"schema\":" +
                                obs::json::quote(schema) + "}");
    return 0;
  }
  const std::optional<std::string> text = readWholeFile(path);
  if (!text) throw Error("cannot read log '" + path + "'");
  std::size_t corrupt = 0;
  std::string intact;
  for (const std::string& line : str::split(*text, '\n')) {
    if (str::trim(line).empty()) continue;
    obs::json::Value record;
    try {
      record = obs::json::parse(line);
    } catch (const ParseError&) {
      // The torn tail of a crash mid-append: the record it belonged to
      // never durably happened.
      ++corrupt;
      continue;
    }
    intact.append(line).push_back('\n');
    if (!record.isObject()) continue;
    if (record.stringOr("kind", "") != "meta") {
      visit(record);
    } else if (const std::string found = record.stringOr("schema", "");
               found != schema) {
      throw Error("log '" + path + "' has schema '" + found +
                  "' (expected '" + std::string(schema) + "')");
    }
  }
  // Truncate the torn tail so the next append lands after the last
  // intact record instead of being glued onto a partial line.
  if (corrupt > 0 || (!text->empty() && text->back() != '\n')) {
    durableWriteFile(path, intact);
  }
  return corrupt;
}

std::string RunJournal::pathFor(const std::string& dir) {
  return (std::filesystem::path(dir) / "journal.jsonl").string();
}

std::string RunJournal::key(std::string_view test, std::string_view target,
                            int repeat) {
  return std::string(test) + "\x1f" + std::string(target) + "\x1f" +
         std::to_string(repeat);
}

RunJournal::RunJournal(const std::string& dir) : path_(pathFor(dir)) {
  std::filesystem::create_directories(dir);
  corruptLines_ =
      openJsonLog(path_, kJournalSchema, [&](const obs::json::Value& record) {
        if (record.stringOr("kind", "") != "run") return;
        keys_.insert(key(record.stringOr("test", ""),
                         record.stringOr("target", ""),
                         static_cast<int>(record.numberOr("repeat", 0))));
      });
}

bool RunJournal::contains(std::string_view test, std::string_view target,
                          int repeat) const {
  return keys_.count(key(test, target, repeat)) > 0;
}

void RunJournal::record(std::string_view test, std::string_view target,
                        int repeat, std::string_view outcome,
                        std::string_view stage, int attempts) {
  durableAppendLine(
      path_, "{\"kind\":\"run\",\"test\":" + obs::json::quote(test) +
                 ",\"target\":" + obs::json::quote(target) +
                 ",\"repeat\":" + std::to_string(repeat) +
                 ",\"outcome\":" + obs::json::quote(outcome) +
                 ",\"stage\":" + obs::json::quote(stage) +
                 ",\"attempts\":" + std::to_string(attempts) + "}");
  keys_.insert(key(test, target, repeat));
}

}  // namespace rebench
