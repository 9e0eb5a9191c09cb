#include "core/framework/perflog.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

// '|' and '=' structure the record; newline ends it.  Escape with URL-ish
// percent encoding so arbitrary test output can round-trip.
std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '|' || c == '=' || c == '%' || c == '\n') {
      static constexpr char kHex[] = "0123456789abcdef";
      out += '%';
      out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
      out += kHex[static_cast<unsigned char>(c) & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

int hexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw ParseError("bad escape in perflog line");
}

/// Decodes `raw` into `out`, copying it whole when it holds no '%'.
void unescapeInto(std::string_view raw, std::string& out) {
  const std::size_t first = raw.find('%');
  out.assign(raw.substr(0, first));
  if (first == std::string_view::npos) return;
  for (std::size_t i = first; i < raw.size(); ++i) {
    if (raw[i] == '%') {
      if (i + 2 >= raw.size()) throw ParseError("truncated escape");
      out += static_cast<char>(hexVal(raw[i + 1]) * 16 + hexVal(raw[i + 2]));
      i += 2;
    } else {
      out += raw[i];
    }
  }
}

/// `raw` decoded: `raw` itself when it holds no '%', otherwise a view of
/// `scratch`, which receives the decoded copy.
std::string_view unescape(std::string_view raw, std::string& scratch) {
  if (raw.find('%') == std::string_view::npos) return raw;
  unescapeInto(raw, scratch);
  return scratch;
}

/// std::stod(text), bit for bit, exceptions included.  Plain decimals
/// ("-12.5": only [-0-9.], fully consumed, well inside the normal range)
/// are read by from_chars, which rounds exactly as strtod does; anything
/// else (blanks, '+', exponents, hex, inf/nan, trailing junk, underflow,
/// overflow) goes to stod itself.
double toDouble(std::string_view text) {
  bool plain = !text.empty();
  bool nonzero = false;
  for (const char c : text) {
    if (c >= '1' && c <= '9') {
      nonzero = true;
    } else if (c != '0' && c != '-' && c != '.') {
      plain = false;
      break;
    }
  }
  if (plain) {
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    const double magnitude = std::fabs(value);
    if (ec == std::errc{} && ptr == end &&
        ((magnitude > 1e-300 && magnitude < 1e300) ||
         (value == 0.0 && !nonzero))) {
      return value;
    }
  }
  return std::stod(std::string(text));
}

/// The text member `key` names, or nullptr: the key's length picks at
/// most three candidates, and a compare picks the member.
std::string* textField(PerfLogEntry& entry, std::string_view key) {
  switch (key.size()) {
    case 2:
      if (key == "ts") return &entry.timestamp;
      break;
    case 3:
      if (key == "fom") return &entry.fomName;
      break;
    case 4:
      if (key == "test") return &entry.testName;
      if (key == "spec") return &entry.spec;
      break;
    case 6:
      if (key == "system") return &entry.system;
      if (key == "job_id") return &entry.jobId;
      if (key == "result") return &entry.result;
      break;
    case 7:
      if (key == "version") return &entry.frameworkVersion;
      if (key == "environ") return &entry.environ;
      break;
    case 9:
      if (key == "partition") return &entry.partition;
      if (key == "spec_hash") return &entry.specHash;
      if (key == "binary_id") return &entry.binaryId;
      break;
    default:
      break;
  }
  return nullptr;
}

/// Stores the still-escaped `raw` value under the decoded `key`.  Text
/// is decoded straight into its member; every other value is decoded
/// before the key is judged, so a bad escape is reported as such even
/// under an unknown key.
void setField(PerfLogEntry& entry, std::string_view key, std::string_view raw,
              std::string& scratch) {
  if (std::string* text = textField(entry, key)) {
    unescapeInto(raw, *text);
    return;
  }
  const std::string_view value = unescape(raw, scratch);
  if (key == "value") entry.value = toDouble(value);
  else if (key == "unit") entry.unit = unitFromName(value);
  else if (key == "ref") entry.reference = toDouble(value);
  else if (key == "lower") entry.lowerThresh = toDouble(value);
  else if (key == "upper") entry.upperThresh = toDouble(value);
  else if (key.starts_with("x:")) {
    entry.extras.insert_or_assign(std::string(key.substr(2)),
                                  std::string(value));
  } else {
    throw ParseError("unknown perflog key: '" + std::string(key) + "'");
  }
}

void put(std::string& line, std::string_view key, std::string_view value) {
  if (!line.empty()) line += '|';
  line += escape(key);
  line += '=';
  line += escape(value);
}

}  // namespace

std::string PerfLogEntry::serialize() const {
  std::string line;
  put(line, "ts", timestamp);
  put(line, "version", frameworkVersion);
  put(line, "system", system);
  put(line, "partition", partition);
  put(line, "environ", environ);
  put(line, "test", testName);
  put(line, "spec", spec);
  put(line, "spec_hash", specHash);
  put(line, "binary_id", binaryId);
  put(line, "job_id", jobId);
  put(line, "fom", fomName);
  put(line, "value", str::fixed(value, 6));
  put(line, "unit", unitName(unit));
  if (reference) {
    put(line, "ref", str::fixed(*reference, 6));
    put(line, "lower", str::fixed(lowerThresh, 4));
    put(line, "upper", str::fixed(upperThresh, 4));
  }
  put(line, "result", result);
  for (const auto& [key, val] : extras) {
    put(line, "x:" + key, val);
  }
  return line;
}

PerfLogEntry PerfLogEntry::parse(std::string_view line) {
  PerfLogEntry entry;
  std::string keyScratch;
  std::string valueScratch;
  std::size_t start = 0;
  while (true) {
    const std::size_t bar = line.find('|', start);
    const std::string_view field =
        line.substr(start, bar == std::string_view::npos ? bar : bar - start);
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      throw ParseError("malformed perflog field: '" + std::string(field) +
                       "'");
    }
    const std::string_view key = unescape(field.substr(0, eq), keyScratch);
    setField(entry, key, field.substr(eq + 1), valueScratch);
    if (bar == std::string_view::npos) return entry;
    start = bar + 1;
  }
}

PerfLog::PerfLog(std::string path) : path_(std::move(path)) {}

void PerfLog::append(const PerfLogEntry& entry) {
  lines_.push_back(entry.serialize());
  if (!path_.empty()) {
    std::ofstream out(path_, std::ios::app);
    if (!out) throw Error("cannot open perflog file '" + path_ + "'");
    out << lines_.back() << '\n';
  }
}

std::size_t countPerflogLines(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return 0;
  std::ifstream in(path, std::ios::binary);
  std::vector<char> block(std::size_t{1} << 16);
  std::size_t lines = 0;
  char last = '\n';
  while (in.read(block.data(), static_cast<std::streamsize>(block.size())) ||
         in.gcount() > 0) {
    const auto end = block.begin() + in.gcount();
    lines += static_cast<std::size_t>(std::count(block.begin(), end, '\n'));
    last = end[-1];
  }
  return lines + (last != '\n' ? 1 : 0);
}

namespace {

/// readFile and readFileLenient: reserves `entries` for every line of
/// `path`, then streams it through forEachPerflogLine, so `entries`
/// never grows by doubling.
template <typename OnLine>
void forEachLine(const std::string& path, std::vector<PerfLogEntry>& entries,
                 OnLine onLine) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read perflog file '" + path + "'");
  entries.reserve(countPerflogLines(path));
  forEachPerflogLine(in, onLine);
}

/// Appends `line` parsed, or counts it as corrupt.
void parseLenient(std::string_view line, PerfLog::LenientParse& out) {
  try {
    out.entries.push_back(PerfLogEntry::parse(line));
  } catch (const std::exception&) {
    // stod() throws std::invalid_argument, parse() throws ParseError;
    // either way the line is damaged, not the file.
    ++out.corruptLines;
  }
}

}  // namespace

std::vector<PerfLogEntry> PerfLog::readFile(const std::string& path) {
  std::vector<PerfLogEntry> out;
  forEachLine(path, out, [&](std::string_view line) {
    out.push_back(PerfLogEntry::parse(line));
  });
  return out;
}

std::vector<PerfLogEntry> PerfLog::parseLines(
    const std::vector<std::string>& lines) {
  std::vector<PerfLogEntry> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    out.push_back(PerfLogEntry::parse(line));
  }
  return out;
}

PerfLog::LenientParse PerfLog::readFileLenient(const std::string& path) {
  LenientParse out;
  forEachLine(path, out.entries,
              [&](std::string_view line) { parseLenient(line, out); });
  return out;
}

PerfLog::LenientParse PerfLog::parseLinesLenient(
    const std::vector<std::string>& lines) {
  LenientParse out;
  out.entries.reserve(lines.size());
  for (const std::string& line : lines) parseLenient(line, out);
  return out;
}

}  // namespace rebench
