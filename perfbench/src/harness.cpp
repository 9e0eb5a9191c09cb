#include "harness.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::size_t samplesBeyond(std::size_t n, double p) {
  // Integer arithmetic in thousandths of a percent keeps p99.9 exact.
  const auto milli = static_cast<std::uint64_t>(std::llround(p * 1000.0));
  const std::uint64_t at = (n * milli + 100000 - 1) / 100000;  // ceil
  return at >= n ? 0 : static_cast<std::size_t>(n - at);
}

std::optional<TailPercentile> tailPercentile(
    const std::vector<double>& samples) {
  for (double p : {99.9, 99.0, 90.0}) {
    const std::size_t beyond = samplesBeyond(samples.size(), p);
    if (beyond >= 10) return TailPercentile{p, percentile(samples, p), beyond};
  }
  return std::nullopt;
}

Digest& Digest::update(std::string_view bytes) {
  for (unsigned char c : bytes) {
    state_ ^= c;
    state_ *= 0x100000001b3ull;
  }
  return *this;
}

std::string Digest::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  std::uint64_t v = state_;
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::string digestTree(const std::string& dir,
                       bool (*keep)(const std::string& name)) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (keep != nullptr && !keep(entry.path().filename().string())) continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  Digest digest;
  for (const fs::path& file : files) {
    digest.update(fs::relative(file, dir).generic_string());
    digest.update(std::string_view("\0", 1));
    digest.update(readFile(file.string()));
  }
  return digest.hex();
}

ProcCounters readCounters() {
  ProcCounters counters;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  counters.cpuSeconds =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
          1e-6;
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") counters.bytesWritten = value;
  }
  counters.fsyncs = fsyncCalls();
  counters.fsyncSeconds = fsyncSeconds();
  return counters;
}

ProcCounters operator-(const ProcCounters& a, const ProcCounters& b) {
  return {a.cpuSeconds - b.cpuSeconds, a.bytesWritten - b.bytesWritten,
          a.fsyncs - b.fsyncs, a.fsyncSeconds - b.fsyncSeconds};
}

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void copyTree(const std::string& from, const std::string& to) {
  fs::copy(from, to, fs::copy_options::recursive);
}

void settleDisk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open " + dir);
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("syncfs failed on " + dir);
}

void removeTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void writeFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

TreeStats treeStats(const std::string& dir) {
  TreeStats stats;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return stats;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++stats.files;
    stats.bytes += entry.file_size();
  }
  return stats;
}

std::uint64_t countFiles(const std::string& dir, std::string_view prefix) {
  std::uint64_t n = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().starts_with(prefix)) ++n;
  }
  return n;
}

int LineClock::overflow(int ch) {
  if (ch == traits_type::eof()) return traits_type::not_eof(ch);
  const char c = static_cast<char>(ch);
  xsputn(&c, 1);
  return ch;
}

std::streamsize LineClock::xsputn(const char* s, std::streamsize n) {
  for (std::streamsize i = 0; i < n; ++i) {
    if (s[i] == '\n') stamps_.push_back({Clock::now(), fsyncSeconds()});
  }
  return n;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

double SpanRecorder::nowMs() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name)
    : recorder_(recorder), index_(recorder.spans_.size()) {
  recorder_.spans_.push_back(
      {std::move(name), recorder_.nowMs(), 0.0, recorder_.open_});
  recorder_.open_ = static_cast<int>(index_);
}

SpanRecorder::Scope::~Scope() {
  Span& span = recorder_.spans_[index_];
  span.endMs = recorder_.nowMs();
  recorder_.open_ = span.parent;
}

double SpanRecorder::totalMs(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.endMs - span.startMs;
  }
  return total;
}

std::size_t SpanRecorder::count(std::string_view name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [name](const Span& span) { return span.name == name; }));
}

double SpanRecorder::topLevelMs() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += span.endMs - span.startMs;
  }
  return total;
}

std::string formatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string encodePass(const Pass& pass) {
  std::ostringstream out;
  out << "wall " << formatNumber(pass.wallSeconds) << "\ncpu "
      << formatNumber(pass.cpuSeconds) << "\nfsync "
      << formatNumber(pass.fsyncSeconds) << "\nops " << pass.ops << "\nfailed "
      << pass.failed << "\nms";
  for (double ms : pass.opMs) out << " " << formatNumber(ms);
  out << "\n";
  for (const std::string& d : pass.digests) out << "digest " << d << "\n";
  for (const std::string& p : pass.problems) out << "problem " << p << "\n";
  return out.str();
}

Pass decodePass(const std::string& text) {
  Pass pass;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string rest = space == std::string::npos ? "" : line.substr(space + 1);
    std::istringstream value(rest);
    if (key == "wall") value >> pass.wallSeconds;
    if (key == "cpu") value >> pass.cpuSeconds;
    if (key == "fsync") value >> pass.fsyncSeconds;
    if (key == "ops") value >> pass.ops;
    if (key == "failed") value >> pass.failed;
    if (key == "ms") {
      for (double ms = 0; value >> ms;) pass.opMs.push_back(ms);
    }
    if (key == "digest") pass.digests.push_back(rest);
    if (key == "problem") pass.problems.push_back(rest);
  }
  return pass;
}

namespace {

std::string quote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void printReport(std::ostream& out, const std::string& workload,
                 const Result& result) {
  out << "workload " << workload << ": " << result.attempted
      << " op(s) attempted, " << result.failed << " failed, digest "
      << result.digest << "\n";
  std::vector<Metric> all = result.metrics;
  all.insert(all.end(), result.reportOnly.begin(), result.reportOnly.end());
  for (const Metric& metric : all) {
    out << "  " << metric.name << " = " << formatNumber(metric.value) << " "
        << metric.unit << " (n=" << metric.samples << ")";
    if (!metric.note.empty()) out << " " << metric.note;
    out << "\n";
  }
  for (const std::string& problem : result.problems) {
    out << "  INCORRECT: " << problem << "\n";
  }
}

std::string resultJson(const Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) out << ", ";
    out << quote(metric.name) << ": {\"value\": "
        << formatNumber(metric.value) << ", \"unit\": " << quote(metric.unit)
        << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
