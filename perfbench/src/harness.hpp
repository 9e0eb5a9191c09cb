// Measurement plumbing shared by every perfbench workload: statistics,
// output digests, process counters taken from outside the program,
// directory copies and diffs, in-memory spans, and the report format.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- statistics ---------------------------------------------------------

/// Percentile `p` (0..100) by linear interpolation between order
/// statistics (numpy's default).  0 for an empty sample.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);

/// Samples ranked above percentile `p` of `n` samples.
std::size_t samplesBeyond(std::size_t n, double p);

/// The reporting rule for timings: the highest of p99.9, p99 and p90 that
/// has at least ten samples beyond it.  Empty when even p90 has fewer.
struct TailPercentile {
  double p = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
std::optional<TailPercentile> tailPercentile(const std::vector<double>& samples);

// ---- digests --------------------------------------------------------------

/// 64-bit FNV-1a, implemented here rather than borrowed from the program
/// so that a change to the program's hashing never changes how the
/// benchmark compares outputs.
class Digest {
 public:
  Digest& update(std::string_view bytes);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Digest over every regular file under `dir` whose name passes
/// `keep`, in path order, covering both relative paths and bytes.
std::string digestTree(const std::string& dir,
                       bool (*keep)(const std::string& name) = nullptr);

// ---- counters taken from outside the program -----------------------------

/// fsync + fdatasync calls made by this process, and the wall seconds
/// spent in them (io_counters.cpp interposes both).
std::uint64_t fsyncCalls();
double fsyncSeconds();

struct ProcCounters {
  double cpuSeconds = 0.0;        // user + system, getrusage(RUSAGE_SELF)
  std::uint64_t bytesWritten = 0;  // /proc/self/io wchar
  std::uint64_t fsyncs = 0;
  double fsyncSeconds = 0.0;
};
ProcCounters readCounters();
ProcCounters operator-(const ProcCounters& a, const ProcCounters& b);

using Clock = std::chrono::steady_clock;
double secondsSince(Clock::time_point start);

// ---- files ----------------------------------------------------------------

void copyTree(const std::string& from, const std::string& to);
/// Writes back every dirty page of the filesystem holding `dir`
/// (syncfs), so that a timed pass's fsyncs never flush data an untimed
/// copy or removal left behind.
void settleDisk(const std::string& dir);
void removeTree(const std::string& dir);
std::string readFile(const std::string& path);
void writeFile(const std::string& path, std::string_view bytes);

struct TreeStats {
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
};
/// Regular files (recursively) under `dir`; zero when it is absent.
TreeStats treeStats(const std::string& dir);
/// Files directly in `dir` whose name starts with `prefix`.
std::uint64_t countFiles(const std::string& dir, std::string_view prefix);

// ---- timestamped log stream ------------------------------------------------

/// A streambuf that stamps the steady clock, and the seconds spent in
/// fsync so far, each time a line ends: the gaps between the verdict
/// lines Service::run writes are the service times of its submissions.
class LineClock : public std::streambuf {
 public:
  struct Stamp {
    Clock::time_point at;
    double fsyncSeconds = 0.0;
  };
  const std::vector<Stamp>& stamps() const { return stamps_; }

 protected:
  int overflow(int ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::vector<Stamp> stamps_;
};

// ---- spans ------------------------------------------------------------------

/// In-memory spans recorded around calls into the program's layers.
/// Only top-level spans count towards coverage; nested spans give a
/// layer's self time by subtraction.
class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_;
  };

  struct Span {
    std::string name;
    double startMs = 0.0;
    double endMs = 0.0;
    int parent = -1;
  };

  SpanRecorder();
  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of spans named `name`, in ms.
  double totalMs(std::string_view name) const;
  std::size_t count(std::string_view name) const;
  /// Summed duration of top-level spans, in ms.
  double topLevelMs() const;

 private:
  double nowMs() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// ---- report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  // extra context printed in the human report
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> reportOnly;  // printed, but not in the JSON metrics
  std::vector<std::string> problems;  // why `correct` is false
  std::string digest;
};

/// What one timed pass, run in a child process, reports back to the
/// measuring process (as text, through a file).
struct Pass {
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;  // getrusage delta around the timed work
  double fsyncSeconds = 0.0;  // wall time blocked in fsync/fdatasync
  double peakRssMb = 0.0;   // the child's ru_maxrss, taken by wait4
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<double> opMs;
  std::vector<std::string> digests;  // "name=digest" of deterministic outputs
  std::vector<std::string> problems;
};

std::string encodePass(const Pass& pass);
Pass decodePass(const std::string& text);

/// Shortest text that reads back as exactly `value`.
std::string formatNumber(double value);

/// Human-readable lines: every metric with its unit and sample count.
void printReport(std::ostream& out, const std::string& workload,
                 const Result& result);
/// The one-line JSON result (correct, attempted, failed, metrics) that
/// closes the output.
std::string resultJson(const Result& result);

}  // namespace perfbench
