#include "workloads.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/framework/perflog.hpp"
#include "core/framework/pipeline.hpp"
#include "core/postproc/dataframe.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/postproc/regression.hpp"
#include "core/postproc/stats.hpp"
#include "core/service/queue.hpp"
#include "core/service/record.hpp"
#include "core/service/service.hpp"
#include "core/store/build_cache.hpp"
#include "core/store/object_store.hpp"
#include "core/telemetry/bus.hpp"
#include "core/util/error.hpp"
#include "generators.hpp"
#include "traced_serve.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace rebench;

namespace {

/// Set-up runs at least kMinSetups times and, while it is quick, until it
/// has taken kSetupSeconds (at most kMaxSetups); setup_s is the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 1.0;
/// perflog_report corpus: points per series (216 series).
constexpr std::size_t kPerflogPoints = 120;

struct Env {
  SystemRegistry systems = builtinSystems();
  PackageRepository repo = builtinRepository();
};

/// A span when tracing, nothing otherwise.
class MaybeSpan {
 public:
  MaybeSpan(SpanRecorder* spans, const char* name) {
    if (spans != nullptr) scope_.emplace(*spans, name);
  }

 private:
  std::optional<SpanRecorder::Scope> scope_;
};

// ---- set-up ------------------------------------------------------------------

/// fork() for a child that must not outlive the measuring process.
pid_t forkChild() {
  std::cout.flush();
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) std::_Exit(1);
  }
  return pid;
}

/// Wall and CPU (user + system) seconds of one set-up.
struct SetupTime {
  double wall = 0.0;
  double cpu = 0.0;
};

/// Runs `prepare` in a child process, so that neither its memory nor its
/// threads reach the measured process (peak_rss_mb covers the timed
/// phase only).  Wall time runs from fork to reaped child; CPU time is
/// the child's own.
SetupTime setupInChild(const std::function<void()>& prepare) {
  const Clock::time_point start = Clock::now();
  const pid_t pid = forkChild();
  if (pid == 0) {
    int code = 0;
    try {
      prepare();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
      code = 1;
    }
    std::_Exit(code);
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child failed");
  }
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {secondsSince(start), seconds(usage.ru_utime) + seconds(usage.ru_stime)};
}

/// Prepares the starting state several times, each into a fresh
/// directory; the last one becomes the template every timed pass copies.
struct Setup {
  std::string templateDir;
  std::vector<SetupTime> times;
};

Setup setUp(const std::string& workDir,
            const std::function<void(const std::string&)>& prepare) {
  Setup setup;
  double total = 0.0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || total < kSetupSeconds);
       ++i) {
    const std::string dir = workDir + "/template-" + std::to_string(i);
    settleDisk(workDir);
    setup.times.push_back(setupInChild([&] {
      fs::create_directories(dir);
      prepare(dir);
    }));
    total += setup.times.back().wall;
    if (!setup.templateDir.empty()) removeTree(setup.templateDir);
    setup.templateDir = dir;
  }
  return setup;
}

/// A fresh copy of the template for one timed pass.
std::string freshCopy(const Setup& setup, const std::string& workDir,
                      const std::string& name) {
  const std::string dir = workDir + "/" + name;
  removeTree(dir);
  copyTree(setup.templateDir, dir);
  settleDisk(workDir);
  return dir;
}

// ---- untraced passes, one child process each ---------------------------------

/// Runs one timed pass in a child process, as each `rebench serve`,
/// `rebench suite` or `rebench report` is a process of its own: passes
/// cannot inherit each other's heap, and the child's peak RSS is the
/// pass's own.  The measuring process starts no threads, so forking it
/// is safe.
Pass passInChild(const std::string& workDir,
                 const std::function<Pass()>& body) {
  const std::string resultPath = workDir + "/pass-result.txt";
  removeTree(resultPath);
  const pid_t pid = forkChild();
  if (pid == 0) {
    int code = 0;
    try {
      writeFile(resultPath, encodePass(body()));
    } catch (const std::exception& e) {
      std::cerr << "perfbench: pass failed: " << e.what() << "\n";
      code = 1;
    }
    std::_Exit(code);
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("pass child failed");
  }
  Pass pass = decodePass(readFile(resultPath));
  pass.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return pass;
}

/// Runs `body` in children until `seconds` have passed (and at least
/// `minPasses` ran), calling `before`/`after` around each pass in the
/// measuring process, outside the timed work.
std::vector<Pass> untracedPasses(const RunArgs& args, std::size_t minPasses,
                                 const std::function<void()>& before,
                                 const std::function<Pass()>& body,
                                 const std::function<void()>& after) {
  std::vector<Pass> passes;
  const Clock::time_point phase = Clock::now();
  while (passes.size() < minPasses || secondsSince(phase) < args.seconds) {
    before();
    passes.push_back(passInChild(args.workDir, body));
    after();
  }
  return passes;
}

/// Metric values by name, emitted in BENCHMARK.json order with the units
/// declared there.
struct Layers {
  std::map<std::string, Metric> values;
  void set(const std::string& name, double value, std::size_t samples,
           std::string note = "") {
    values[name] = {name, value, "", samples, std::move(note)};
  }
};

/// Appends every metric of `specs` in order; a metric not set is 0 (a
/// layer the workload does not exercise).
void emit(Result& result, const std::vector<MetricSpec>& specs,
          const Layers& layers) {
  for (const MetricSpec& spec : specs) {
    auto it = layers.values.find(spec.name);
    Metric metric = it != layers.values.end()
                        ? it->second
                        : Metric{spec.name, 0.0, "", 0, "(not exercised)"};
    metric.unit = spec.unit;
    result.metrics.push_back(std::move(metric));
  }
}

/// How the ops of a pass line up across passes.
enum class Ops {
  kUnaligned,   // op i differs from pass to pass: pool all samples
  kAligned,     // op i is the same work in every pass (concurrent ops)
  kSequential,  // aligned, and run one after another, so the pass time is
                // the sum of the op times
};

/// Median over passes of each op position's time.
std::vector<double> positionMedians(const std::vector<Pass>& passes) {
  std::vector<double> medians;
  for (std::size_t i = 0; i < passes.front().opMs.size(); ++i) {
    std::vector<double> samples;
    for (const Pass& pass : passes) samples.push_back(pass.opMs.at(i));
    medians.push_back(median(samples));
  }
  return medians;
}

/// End-to-end metrics from untraced passes of identical work.  On a
/// shared machine a neighbour's burst slows a stretch of one pass, so
/// every figure is a median over passes: CPU and memory per pass, and for
/// aligned ops each op's own time, from which the latency percentiles
/// (and, for sequential ops, the pass time behind ops_per_s) are taken.
/// Times exclude the wall time blocked in fsync: on a shared disk its
/// latency moved serve_cold's p50 by half between runs.  It is printed as
/// fsync_ms_per_op, and service.fsyncs_per_op / service.fsync_ms_per_op
/// measure it per layer.
void addEndToEnd(Result& result, const std::vector<Pass>& passes,
                 const Setup& setup, Ops layout) {
  std::vector<double> rates, wallRates, cpuMs, fsyncMs, rss, opMs;
  std::string walls;
  std::map<std::string, std::string> digests;
  for (const Pass& pass : passes) {
    const double ops = static_cast<double>(std::max<std::uint64_t>(pass.ops, 1));
    rates.push_back(static_cast<double>(pass.ops) /
                    (pass.wallSeconds - pass.fsyncSeconds));
    wallRates.push_back(static_cast<double>(pass.ops) / pass.wallSeconds);
    cpuMs.push_back(pass.cpuSeconds * 1000.0 / ops);
    fsyncMs.push_back(pass.fsyncSeconds * 1000.0 / ops);
    rss.push_back(pass.peakRssMb);
    opMs.insert(opMs.end(), pass.opMs.begin(), pass.opMs.end());
    walls += " " + formatNumber(pass.wallSeconds);
    result.attempted += pass.ops;
    result.failed += pass.failed;
    for (const std::string& problem : pass.problems) {
      result.correct = false;
      if (result.problems.size() < 8) result.problems.push_back(problem);
    }
    for (const std::string& digest : pass.digests) {
      const std::string name = digest.substr(0, digest.find('='));
      const auto [it, fresh] = digests.emplace(name, digest);
      if (!fresh && it->second != digest) {
        result.correct = false;
        result.problems.push_back("a repeated pass changed its output: " +
                                  it->second + " then " + digest);
      }
    }
  }
  Digest all;
  for (const auto& [name, digest] : digests) all.update(digest + "\n");
  result.digest = all.hex();
  const std::size_t n = passes.size();
  bool aligned = layout != Ops::kUnaligned;
  for (const Pass& pass : passes) {
    aligned = aligned && pass.opMs.size() == passes.front().opMs.size();
  }
  std::string opNote = "(all samples pooled)";
  double rate = median(rates);
  std::string rateNote =
      "(median of passes, fsync excluded; pass walls in s:" + walls + ")";
  if (aligned) {
    opMs = positionMedians(passes);
    opNote = "(medians of each op over " + std::to_string(n) + " passes)";
    if (layout == Ops::kSequential) {
      double passMs = 0.0;
      for (double ms : opMs) passMs += ms;
      rate = static_cast<double>(opMs.size()) * 1000.0 / passMs;
      rateNote = "(ops over the sum of each op's median time, fsync "
                 "excluded; pass walls in s:" + walls + ")";
    }
  }
  Layers metrics;
  metrics.set("ops_per_s", rate, n, rateNote);
  metrics.set("cpu_ms_per_op", median(cpuMs), n,
              "(median of passes, getrusage user+system)");
  std::string tail = "(no percentile has ten samples beyond it)";
  if (const auto t = tailPercentile(opMs)) {
    tail = "(tail by the ten-beyond rule: p" + formatNumber(t->p) + " = " +
           formatNumber(t->value) + " ms, " + std::to_string(t->beyond) +
           " samples beyond)";
  }
  metrics.set("op_ms_p50", percentile(opMs, 50.0), opMs.size(), opNote);
  metrics.set("op_ms_p90", percentile(opMs, 90.0), opMs.size(),
              std::to_string(samplesBeyond(opMs.size(), 90.0)) +
                  " samples beyond " + tail);
  metrics.set("peak_rss_mb", median(rss), n,
              "(median of passes, child ru_maxrss)");
  // setup_s is CPU time: set-up of serve_cold is 120 fsyncs (the queue
  // goes through enqueueSubmission), and its wall time doubled from one
  // set of runs to the next with the shared disk's fsync latency.  The
  // wall time is printed alongside.
  std::vector<double> setupCpu, setupWall;
  for (const SetupTime& t : setup.times) {
    setupCpu.push_back(t.cpu);
    setupWall.push_back(t.wall);
  }
  metrics.set("setup_s", median(setupCpu), setupCpu.size(),
              "(median CPU time of set-ups, getrusage user+system)");
  emit(result, endToEndMetrics(), metrics);
  // Printed with the metrics but kept out of the JSON: it is 0 whenever
  // the program is right, and the JSON carries it as attempted/failed.
  result.reportOnly.push_back(
      {"op_error_ratio",
       result.attempted == 0 ? 0.0
                             : static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted),
       "ratio", result.attempted, ""});
  // Wall time blocked in fsync: on a shared disk it moves the wall-time
  // metrics while CPU time stays put.
  result.reportOnly.push_back({"fsync_ms_per_op", median(fsyncMs), "ms", n,
                               "(median of passes)"});
  result.reportOnly.push_back({"wall_ops_per_s", median(wallRates), "1/s", n,
                               "(median of passes, fsync included)"});
  result.reportOnly.push_back({"setup_wall_s", median(setupWall), "s",
                               setupWall.size(), "(median of set-ups)"});
}



/// Span totals per op for the span names a metric sums.
void setSpanMetric(Layers& layers, const SpanRecorder& spans,
                   const std::string& metric,
                   std::initializer_list<const char*> names, double ops) {
  double ms = 0.0;
  std::size_t n = 0;
  for (const char* name : names) {
    ms += spans.totalMs(name);
    n += spans.count(name);
  }
  layers.set(metric, ops > 0 ? ms / ops : 0.0, n);
}

/// Tracing overhead from per-pass walls: the ratio of the traced and
/// untraced medians, so one slow (first, cold-cache) pass does not skew it.
double overheadRatio(const std::vector<double>& traced,
                     const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0 ? median(traced) / base - 1.0 : 0.0;
}

void addLayers(Result& result, const Layers& layers, double overhead,
               double tracedWall, const SpanRecorder& spans,
               std::size_t pairs) {
  Layers all = layers;
  all.set("trace.overhead_ratio", overhead, pairs);
  all.set("trace.coverage",
          tracedWall > 0 ? spans.topLevelMs() / (tracedWall * 1000.0) : 0.0,
          spans.spans().size());
  emit(result, perLayerMetrics(), all);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- serve workloads -------------------------------------------------------------

/// Verdict files and journal bytes of a drained queue.
std::string queueDigest(const std::string& queueDir) {
  return digestTree(queueDir, [](const std::string& name) {
    return name != "health.json" && !name.starts_with("flightrec-") &&
           !name.starts_with("sub-") &&
           (name.ends_with(".json") || name == "service-journal.jsonl");
  });
}

/// Counts the submissions whose op failed: no verdict filed; a degraded,
/// failed:infrastructure or failed:quarantined verdict; a run key other
/// than `keys` holds; or (warm) a cold ran:* verdict not answered
/// `cached` with the same manifest hash.
std::uint64_t failedOps(const std::string& queueDir,
                        const std::map<std::string, std::string>& keys,
                        const std::map<std::string, service::Verdict>* cold) {
  std::uint64_t failed = 0;
  for (const auto& [id, key] : keys) {
    const std::string path = service::verdictPath(queueDir, id);
    if (!fs::exists(path)) {
      ++failed;
      std::cerr << "perfbench: no verdict for " + id + "\n";
      continue;
    }
    const service::Verdict v = service::Verdict::parse(readFile(path));
    bool bad = v.degraded || v.verdict == "failed:infrastructure" ||
               v.verdict == "failed:quarantined" || v.key != key;
    if (cold != nullptr) {
      const service::Verdict& before = cold->at(id);
      if (before.verdict.starts_with("ran:") &&
          (v.verdict != "cached" || v.manifestHash != before.manifestHash)) {
        bad = true;
      }
    }
    if (bad) {
      ++failed;
      std::cerr << "perfbench: failed op " << id << ": " << v.verdict << "\n";
    }
  }
  return failed;
}

struct ServeRun {
  double wallSeconds = 0.0;
  ProcCounters delta;
  std::vector<double> serviceMs;
};

service::ServeOptions serveOptions(const std::string& dir, std::ostream* log) {
  service::ServeOptions options;
  options.queueDir = dir + "/queue";
  options.storeDir = dir + "/store";
  options.once = true;
  options.jobs = 1;
  options.log = log;
  return options;
}

/// One untraced drain through service::Service::run.  Service times are
/// the gaps between the verdict lines it logs, the first measured from
/// the call, less the time the submission spent blocked in fsync.
ServeRun drainUntraced(const Env& env, const std::string& dir) {
  LineClock clock;
  std::ostream log(&clock);
  service::Service daemon(env.systems, env.repo, serveOptions(dir, &log),
                          resolveSuite);
  ServeRun run;
  const ProcCounters before = readCounters();
  const Clock::time_point start = Clock::now();
  daemon.run();
  run.wallSeconds = secondsSince(start);
  run.delta = readCounters() - before;
  LineClock::Stamp previous{start, before.fsyncSeconds};
  for (const LineClock::Stamp& stamp : clock.stamps()) {
    run.serviceMs.push_back(
        std::chrono::duration<double, std::milli>(stamp.at - previous.at)
            .count() -
        (stamp.fsyncSeconds - previous.fsyncSeconds) * 1000.0);
    previous = stamp;
  }
  return run;
}

/// Queues the seed's submissions and writes DIR/keys.txt: each
/// submission's run key, derived here independently of the service
/// ("-" when derivation fails, which the service answers without a key).
void prepareQueue(const Env& env, const std::string& dir, std::uint64_t seed) {
  std::string keys;
  for (const store::CampaignInvocation& inv : serveQueue(seed)) {
    const service::Submission sub =
        service::enqueueSubmission(dir + "/queue", inv);
    std::string key = "-";
    try {
      const std::vector<RegressionTest> tests = resolveSuite(inv);
      if (!tests.empty()) {
        key = service::runKeyFor(inv, env.systems, env.repo, tests);
      }
    } catch (const Error&) {
    }
    keys += sub.id + " " + key + "\n";
  }
  writeFile(dir + "/keys.txt", keys);
  fs::create_directories(dir + "/store");
}

/// DIR/keys.txt as written by prepareQueue: submission id -> run key.
std::map<std::string, std::string> readKeys(const std::string& dir) {
  std::map<std::string, std::string> keys;
  std::istringstream in(readFile(dir + "/keys.txt"));
  std::string id, key;
  while (in >> id >> key) keys[id] = key == "-" ? "" : key;
  return keys;
}

Result runServe(const RunArgs& args, bool warm) {
  const Env env;
  const Setup setup = setUp(args.workDir, [&](const std::string& dir) {
    prepareQueue(env, dir, args.seed);
    if (warm) {
      service::Service daemon(env.systems, env.repo,
                              serveOptions(dir, nullptr), resolveSuite);
      daemon.run();
    }
  });

  Result result;
  // In id order, which is the queue's scan order and so verdict order.
  const std::map<std::string, std::string> keys = readKeys(setup.templateDir);
  std::map<std::string, service::Verdict> cold;
  if (warm) {
    for (const auto& [id, key] : keys) {
      cold[id] = service::Verdict::parse(
          readFile(service::verdictPath(setup.templateDir + "/queue", id)));
    }
  }
  const auto* coldVerdicts = warm ? &cold : nullptr;

  const Clock::time_point phase = Clock::now();
  if (!args.trace) {
    std::string dir;
    // Three passes at least, so each op's median resists one slow pass.
    const std::vector<Pass> passes = untracedPasses(
        args, 3, [&] { dir = freshCopy(setup, args.workDir, "pass"); },
        [&] {
          const ServeRun run = drainUntraced(env, dir);
          Pass pass;
          pass.wallSeconds = run.wallSeconds;
          pass.cpuSeconds = run.delta.cpuSeconds;
          pass.fsyncSeconds = run.delta.fsyncSeconds;
          pass.ops = keys.size();
          pass.opMs = run.serviceMs;
          pass.failed = failedOps(dir + "/queue", keys, coldVerdicts);
          pass.digests.push_back("queue=" + queueDigest(dir + "/queue"));
          if (run.serviceMs.size() != keys.size()) {
            pass.problems.push_back(
                "verdict log has " + std::to_string(run.serviceMs.size()) +
                " lines for " + std::to_string(keys.size()) + " submissions");
          }
          return pass;
        },
        [&] { removeTree(dir); });
    addEndToEnd(result, passes, setup, Ops::kSequential);
  } else {
    SpanRecorder spans;
    ServeTally total;
    ProcCounters tracedDelta;
    TreeStats objects;
    std::uint64_t flightrecs = 0;
    double journalReplayMs = 0.0;
    double tracedWall = 0.0, untracedWall = 0.0, untracedCpu = 0.0;
    std::vector<double> tracedWalls, untracedWalls;
    std::size_t pairs = 0;
    std::uint64_t ops = 0;
    std::string firstDigest;
    while (pairs < 2 || secondsSince(phase) < args.seconds) {
      const std::string plainDir = freshCopy(setup, args.workDir, "plain");
      const std::string tracedDir = freshCopy(setup, args.workDir, "traced");
      auto plain = [&] {
        const ServeRun run = drainUntraced(env, plainDir);
        untracedWall += run.wallSeconds;
        untracedWalls.push_back(run.wallSeconds);
        untracedCpu += run.delta.cpuSeconds;
      };
      auto traced = [&] {
        const TreeStats objectsBefore = treeStats(tracedDir + "/store/objects");
        const std::uint64_t recsBefore =
            countFiles(tracedDir + "/queue", "flightrec-");
        LineClock clock;
        std::ostream log(&clock);
        const ProcCounters before = readCounters();
        const double replayBefore = spans.totalMs("service.journal_replay");
        const Clock::time_point start = Clock::now();
        const ServeTally tally =
            tracedServe(env.systems, env.repo, serveOptions(tracedDir, &log),
                        resolveSuite, spans);
        tracedWalls.push_back(secondsSince(start));
        tracedWall += tracedWalls.back();
        const ProcCounters delta = readCounters() - before;
        journalReplayMs += spans.totalMs("service.journal_replay") - replayBefore;
        tracedDelta.bytesWritten += delta.bytesWritten;
        tracedDelta.fsyncs += delta.fsyncs;
        tracedDelta.fsyncSeconds += delta.fsyncSeconds;
        const TreeStats objectsAfter = treeStats(tracedDir + "/store/objects");
        objects.files += objectsAfter.files - objectsBefore.files;
        objects.bytes += objectsAfter.bytes - objectsBefore.bytes;
        // Files are named by bus sequence number, so a later drain can
        // overwrite an earlier drain's record; count names that are new.
        flightrecs += countFiles(tracedDir + "/queue", "flightrec-") - recsBefore;
        total.report.executed += tally.report.executed;
        total.report.failed += tally.report.failed;
        total.queueScans += tally.queueScans;
        total.queueFilesRead += tally.queueFilesRead;
        total.runCacheLookups += tally.runCacheLookups;
        total.runCacheHits += tally.runCacheHits;
        total.runs += tally.runs;
        total.gates += tally.gates;
        total.gateRecords += tally.gateRecords;
      };
      if (pairs % 2 == 0) {
        plain();
        traced();
      } else {
        traced();
        plain();
      }
      const std::string plainDigest = queueDigest(plainDir + "/queue");
      if (plainDigest != queueDigest(tracedDir + "/queue")) {
        result.correct = false;
        result.problems.push_back(
            "traced replica filed different verdict or journal bytes than "
            "Service::run");
      }
      if (firstDigest.empty()) firstDigest = plainDigest;
      if (plainDigest != firstDigest) {
        result.correct = false;
        result.problems.push_back(
            "a later drain filed different verdict or journal bytes");
      }
      for (const std::string& dir : {plainDir, tracedDir}) {
        result.failed += failedOps(dir + "/queue", keys, coldVerdicts);
        result.attempted += keys.size();
      }
      ops += keys.size();
      ++pairs;
      removeTree(plainDir);
      removeTree(tracedDir);
    }
    const double n = static_cast<double>(ops);
    Layers layers;
    setSpanMetric(layers, spans, "service.queue_scan_ms_per_op",
                  {"service.queue_scan"}, n);
    layers.set("service.queue_files_read_per_op",
               ratio(static_cast<double>(total.queueFilesRead), n),
               total.queueScans);
    setSpanMetric(layers, spans, "service.key_ms_per_op", {"service.key"}, n);
    layers.set("service.journal_replay_ms", journalReplayMs / pairs,
               pairs);
    setSpanMetric(layers, spans, "service.journal_ms_per_op",
                  {"service.journal"}, n);
    layers.set("service.fsyncs_per_op",
               ratio(static_cast<double>(tracedDelta.fsyncs), n),
               ops);
    layers.set("service.fsync_ms_per_op",
               ratio(tracedDelta.fsyncSeconds * 1000.0, n), ops);
    layers.set("service.bytes_written_per_op",
               ratio(static_cast<double>(tracedDelta.bytesWritten), n),
               ops);
    setSpanMetric(layers, spans, "service.verdict_ms_per_op",
                  {"service.verdict"}, n);
    setSpanMetric(layers, spans, "service.health_ms_per_op",
                  {"service.health"}, n);
    layers.set("service.flightrec_files_per_op",
               ratio(static_cast<double>(flightrecs), n), ops);
    layers.set("service.failed_verdict_ratio",
               ratio(total.report.failed, n), ops);
    layers.set("service.reexecuted_ratio", ratio(total.report.executed, n), ops);
    setSpanMetric(layers, spans, "store.runcache_lookup_ms_per_op",
                  {"store.runcache_lookup", "store.runcache_insert"}, n);
    layers.set("store.runcache_hit_ratio",
               ratio(static_cast<double>(total.runCacheHits),
                     static_cast<double>(total.runCacheLookups)), total.runCacheLookups);
    setSpanMetric(layers, spans, "store.manifest_ms_per_op",
                  {"store.manifest"}, n);
    layers.set("store.objects_put_per_op",
               ratio(static_cast<double>(objects.files), n), ops);
    layers.set("store.bytes_put_per_op",
               ratio(static_cast<double>(objects.bytes), n), ops);
    setSpanMetric(layers, spans, "framework.campaign_ms_per_op",
                  {"framework.campaign"}, n);
    layers.set("framework.runs_per_op",
               ratio(static_cast<double>(total.runs), n), ops);
    setSpanMetric(layers, spans, "framework.perflog_serialize_ms_per_op",
                  {"framework.perflog_serialize"}, n);
    layers.set("framework.cpu_utilisation", ratio(untracedCpu, untracedWall), pairs);
    setSpanMetric(layers, spans, "history.append_ms_per_op",
                  {"history.append"}, n);
    setSpanMetric(layers, spans, "history.gate_ms_per_op", {"history.gate"},
                  n);
    layers.set("history.records_per_gate",
               ratio(static_cast<double>(total.gateRecords),
                     static_cast<double>(total.gates)), total.gates);
    setSpanMetric(layers, spans, "telemetry.flightrec_ms_per_op",
                  {"telemetry.flightrec"}, n);
    addLayers(result, layers, overheadRatio(tracedWalls, untracedWalls),
              tracedWall, spans, pairs);
    result.digest = firstDigest;
  }
  removeTree(setup.templateDir);
  return result;
}

// ---- campaign_jobs ---------------------------------------------------------------

struct CampaignRun {
  double wallSeconds = 0.0;
  ProcCounters delta;
  std::vector<double> runMs;
  std::uint64_t runs = 0;
  std::uint64_t failed = 0;
  std::string digest;  // manifest hash + perflog hash
  store::BuildCache::Stats builds;
  TreeStats objects;
};

/// One suite campaign over every target with the store at `storeDir`,
/// then the manifest write.  Per-run service times come from the
/// executor's campaign-start/finish events on a bus the benchmark owns.
CampaignRun campaignPass(const Env& env, const CampaignInput& input,
                         const std::string& storeDir, int jobs,
                         SpanRecorder* spans) {
  const store::CampaignInvocation& inv = input.invocation;
  const std::size_t tuples = input.tests.size() * input.targets.size() *
                             static_cast<std::size_t>(inv.repeats);
  telemetry::EventBus bus(4 * tuples + 64);
  CampaignRun run;
  const ProcCounters before = readCounters();
  const Clock::time_point start = Clock::now();
  std::optional<store::ObjectStore> store;
  {
    MaybeSpan span(spans, "store.open");
    store.emplace(storeDir);
  }
  PerfLog perflog;
  service::CampaignExecution execution;
  std::optional<Pipeline> pipeline;
  {
    MaybeSpan span(spans, "framework.campaign");
    PipelineOptions options = service::pipelineOptionsFor(inv);
    options.jobs = jobs;
    options.store = &*store;
    options.cacheBuilds = inv.cache;
    options.bus = &bus;
    pipeline.emplace(env.systems, env.repo, options);
    CampaignReport report;
    execution = service::executeCampaign(*pipeline, input.tests,
                                         input.targets, inv, &perflog,
                                         nullptr, &report);
  }
  std::string perflogHash;
  {
    MaybeSpan span(spans, "framework.perflog_serialize");
    perflogHash =
        store::ObjectStore::hashBytes(service::perflogBytes(perflog));
  }
  service::ManifestWrite manifest;
  {
    MaybeSpan span(spans, "store.manifest");
    manifest = service::writeCampaignManifest(*store, inv, execution.results,
                                              perflog, nullptr, false);
  }
  run.wallSeconds = secondsSince(start);
  run.delta = readCounters() - before;
  if (const store::BuildCache* cache = pipeline->buildCache()) {
    run.builds = cache->stats();
  }
  run.digest = manifest.hash + "/" + perflogHash;
  run.runs = execution.results.size();
  for (const TestRunResult& result : execution.results) {
    if (!result.passed && result.failure.klass != FailureClass::kPermanent) {
      ++run.failed;
    }
  }
  // Keyed by (test, target, repeat), so run i is the same run in every
  // pass whatever order the workers finished in.
  std::map<std::string, double> started, runMs;
  for (const telemetry::TelemetryEvent& event : bus.snapshot()) {
    const std::string key = event.attrs.count("test") > 0
                                ? event.attrs.at("test") + "|" +
                                      event.attrs.at("target") + "|" +
                                      event.attrs.at("repeat")
                                : "";
    if (event.stage == "campaign-start") {
      started[key] = event.wallSeconds;
    } else if (event.stage == "campaign-finish" && started.count(key) > 0) {
      runMs[key] = (event.wallSeconds - started[key]) * 1000.0;
    }
  }
  for (const auto& [key, ms] : runMs) run.runMs.push_back(ms);
  run.objects = treeStats(storeDir + "/objects");
  return run;
}

Result runCampaign(const RunArgs& args) {
  const Env env;
  const CampaignInput input = campaignInput(args.seed);
  // Set-up prepares an empty store and records the reference digest of
  // the same campaign run in line (jobs = 1): outputs must not depend on
  // the worker count, so every timed pass must reproduce it.
  const Setup setup = setUp(args.workDir, [&](const std::string& dir) {
    fs::create_directories(dir + "/store");
    const std::string scratch = dir + "/reference-store";
    const CampaignRun reference =
        campaignPass(env, input, scratch, 1, nullptr);
    removeTree(scratch);
    writeFile(dir + "/reference.txt", reference.digest);
  });
  const std::string reference = readFile(setup.templateDir + "/reference.txt");

  Result result;
  auto check = [&](const CampaignRun& run, std::vector<std::string>& problems) {
    if (run.digest != reference) {
      problems.push_back("campaign at jobs=" + std::to_string(args.jobs) +
                         " wrote manifest/perflog " + run.digest +
                         ", jobs=1 wrote " + reference);
    }
    if (run.runMs.size() != run.runs) {
      problems.push_back("executor events cover " +
                         std::to_string(run.runMs.size()) + " of " +
                         std::to_string(run.runs) + " runs");
    }
  };

  const Clock::time_point phase = Clock::now();
  if (!args.trace) {
    std::string dir;
    const std::vector<Pass> passes = untracedPasses(
        args, 3, [&] { dir = freshCopy(setup, args.workDir, "pass"); },
        [&] {
          const CampaignRun run =
              campaignPass(env, input, dir + "/store", args.jobs, nullptr);
          Pass pass;
          pass.wallSeconds = run.wallSeconds;
          pass.cpuSeconds = run.delta.cpuSeconds;
          pass.fsyncSeconds = run.delta.fsyncSeconds;
          pass.ops = run.runs;
          pass.failed = run.failed;
          pass.opMs = run.runMs;
          pass.digests.push_back("campaign=" + run.digest);
          check(run, pass.problems);
          return pass;
        },
        [&] { removeTree(dir); });
    addEndToEnd(result, passes, setup, Ops::kAligned);
  } else {
    SpanRecorder spans;
    double tracedWall = 0.0, untracedWall = 0.0, untracedCpu = 0.0;
    std::vector<double> tracedWalls, untracedWalls;
    std::size_t pairs = 0;
    std::uint64_t ops = 0;
    std::uint64_t buildHits = 0, buildMisses = 0, deduped = 0;
    TreeStats objects;
    while (pairs < 2 || secondsSince(phase) < args.seconds) {
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side == 0) == (pairs % 2 == 1);
        const std::string dir = freshCopy(setup, args.workDir, "pass");
        const CampaignRun run = campaignPass(env, input, dir + "/store",
                                             args.jobs,
                                             traced ? &spans : nullptr);
        std::vector<std::string> problems;
        check(run, problems);
        if (!problems.empty()) {
          result.correct = false;
          result.problems.insert(result.problems.end(), problems.begin(),
                                 problems.end());
        }
        result.attempted += run.runs;
        result.failed += run.failed;
        if (traced) {
          tracedWall += run.wallSeconds;
          tracedWalls.push_back(run.wallSeconds);
          ops += run.runs;
          buildHits += run.builds.hits;
          buildMisses += run.builds.misses;
          deduped += run.builds.singleFlightDeduped;
          objects.files += run.objects.files;
          objects.bytes += run.objects.bytes;
        } else {
          untracedWall += run.wallSeconds;
          untracedWalls.push_back(run.wallSeconds);
          untracedCpu += run.delta.cpuSeconds;
        }
        removeTree(dir);
      }
      ++pairs;
    }
    const double n = static_cast<double>(ops);
    const double lookups = static_cast<double>(buildHits + buildMisses);
    Layers layers;
    setSpanMetric(layers, spans, "store.manifest_ms_per_op",
                  {"store.manifest"}, n);
    layers.set("store.objects_put_per_op",
               ratio(static_cast<double>(objects.files), n), ops);
    layers.set("store.bytes_put_per_op",
               ratio(static_cast<double>(objects.bytes), n), ops);
    layers.set("store.build_hit_ratio",
               ratio(static_cast<double>(buildHits), lookups),
               static_cast<std::size_t>(lookups));
    layers.set("store.singleflight_dedup_ratio",
               ratio(static_cast<double>(deduped), lookups),
               static_cast<std::size_t>(lookups));
    setSpanMetric(layers, spans, "framework.campaign_ms_per_op",
                  {"framework.campaign"}, n);
    layers.set("framework.runs_per_op", ops > 0 ? 1.0 : 0.0, ops);
    setSpanMetric(layers, spans, "framework.perflog_serialize_ms_per_op",
                  {"framework.perflog_serialize"}, n);
    layers.set("framework.cpu_utilisation",
               ratio(untracedCpu, untracedWall * args.jobs), pairs);
    addLayers(result, layers, overheadRatio(tracedWalls, untracedWalls),
              tracedWall, spans, pairs);
    result.digest = reference;
  }
  removeTree(setup.templateDir);
  return result;
}

// ---- perflog_report ---------------------------------------------------------------

struct CorpusMeta {
  std::string system, test, fom;
  std::size_t stepIndex = 0;
  std::size_t rows = 0;
};

CorpusMeta readMeta(const std::string& path) {
  std::istringstream in(readFile(path));
  CorpusMeta meta;
  in >> meta.system >> meta.test >> meta.fom >> meta.stepIndex >> meta.rows;
  return meta;
}

struct QueryResult {
  std::string digest;
  std::string problem;  // a wrong answer
  std::size_t rows = 0;
};

std::string seriesName(const PerfLogEntry& e) {
  return e.system + ":" + e.partition + "/" + e.testName + "/" + e.fomName;
}

/// One analyst query: read the perflog, then run the query's kernel.
QueryResult runQuery(const Query& query, const std::string& perflogPath,
                     const CorpusMeta& meta, SpanRecorder* spans) {
  QueryResult out;
  std::vector<PerfLogEntry> entries;
  {
    MaybeSpan span(spans, "postproc.parse");
    entries = PerfLog::readFile(perflogPath);
  }
  out.rows = entries.size();
  if (entries.size() != meta.rows) {
    out.problem = "read " + std::to_string(entries.size()) + " of " +
                  std::to_string(meta.rows) + " rows";
  }
  const std::string stepSeries =
      meta.system + ":compute/" + meta.test + "/" + meta.fom;
  std::ostringstream digest;
  switch (query.kind) {
    case QueryKind::kStats: {
      MaybeSpan span(spans, "postproc.kernel");
      const DataFrame frame =
          perflogToDataFrame(entries).filterEquals("fom", query.fom);
      const std::vector<std::string> keys{"system", "test", "fom"};
      const DataFrame grouped = frame.groupBy(keys, "value", Agg::kMean);
      digest << frame.describe().toCsv() << grouped.toCsv();
      if (grouped.rowCount() != 72) out.problem = "group-by lost groups";
      break;
    }
    case QueryKind::kPivot: {
      MaybeSpan span(spans, "postproc.kernel");
      const DataFrame frame =
          perflogToDataFrame(entries).filterEquals("fom", query.fom);
      const PivotTable pivot = frame.pivot("system", "test", "value");
      for (const auto& row : pivot.cells) {
        for (const auto& cell : row) digest << formatNumber(cell.value_or(-1)) << ",";
      }
      if (pivot.rowLabels.size() != 6 || pivot.colLabels.size() != 12) {
        out.problem = "pivot has the wrong shape";
      }
      break;
    }
    case QueryKind::kDetect: {
      MaybeSpan span(spans, "postproc.detect");
      PerfHistory history;
      history.addAll(entries);
      const std::vector<RegressionEvent> events = history.detect();
      for (const RegressionEvent& event : events) digest << event.detail << "\n";
      // The corpus noise (+-1.5%) stays inside the detector's minimum
      // band (5%), so the seeded 30% drop must be the only finding.
      if (events.empty() || events.front().pointIndex != meta.stepIndex) {
        out.problem = "detect missed the seeded step change";
      }
      for (const RegressionEvent& event : events) {
        if (event.key.system != meta.system || event.key.testName != meta.test ||
            event.key.fomName != meta.fom) {
          out.problem = "detect flagged an unchanged series";
        }
      }
      break;
    }
    case QueryKind::kCompare: {
      MaybeSpan span(spans, "postproc.kernel");
      // Before/after halves of the time range, compared by median the
      // way `rebench compare` does.
      std::map<std::string, std::vector<double>> before, after;
      const std::size_t half = entries.size() / 2;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        (i < half ? before : after)[seriesName(entries[i])].push_back(
            entries[i].value);
      }
      std::vector<std::string> regressed;
      for (const auto& [key, values] : before) {
        const double b = summarize(values).median;
        const double a = summarize(after[key]).median;
        digest << key << "=" << formatNumber((a - b) / b) << "\n";
        if ((a - b) / b < -0.05) regressed.push_back(key);
      }
      if (regressed != std::vector<std::string>{stepSeries}) {
        out.problem = "compare flagged the wrong series";
      }
      break;
    }
  }
  Digest d;
  d.update(digest.str());
  out.digest = d.hex();
  return out;
}

Result runPerflogReport(const RunArgs& args) {
  const Setup setup = setUp(args.workDir, [&](const std::string& dir) {
    const PerflogCorpus corpus = perflogCorpus(args.seed, kPerflogPoints);
    writeFile(dir + "/perflog.log", corpus.text);
    std::ostringstream meta;
    meta << corpus.stepSystem << " " << corpus.stepTest << " "
         << corpus.stepFom << " " << corpus.stepIndex << " " << corpus.rows
         << "\n";
    writeFile(dir + "/corpus.meta", meta.str());
  });
  const std::string perflog = setup.templateDir + "/perflog.log";
  const CorpusMeta meta = readMeta(setup.templateDir + "/corpus.meta");
  const std::vector<Query> mix = queryMix(args.seed, 64);

  Result result;
  std::map<std::string, std::string> firstDigest;  // per kind + fom
  Digest all;
  auto queryKey = [](const Query& query) {
    const bool perFom =
        query.kind == QueryKind::kStats || query.kind == QueryKind::kPivot;
    return std::string(queryName(query.kind)) + "/" + (perFom ? query.fom : "");
  };
  auto check = [&](const Query& query, const QueryResult& answer) {
    const std::string key = queryKey(query);
    auto [it, fresh] = firstDigest.emplace(key, answer.digest);
    if (fresh) all.update(key + "=" + answer.digest + "\n");
    std::string problem = answer.problem;
    if (problem.empty() && it->second != answer.digest) {
      problem = key + " answered differently on a repeat";
    }
    if (!problem.empty()) {
      result.correct = false;
      if (result.problems.size() < 8) result.problems.push_back(problem);
    }
  };

  std::size_t next = 0;
  const Clock::time_point phase = Clock::now();
  if (!args.trace) {
    // A pass is one block of the mix: eight queries, two of each kind.
    constexpr std::size_t kBlock = 8;
    const std::vector<Pass> passes = untracedPasses(
        args, 13, [] {},
        [&] {
          Pass pass;
          const ProcCounters before = readCounters();
          const Clock::time_point start = Clock::now();
          for (std::size_t i = 0; i < kBlock; ++i) {
            const Query& query = mix[(next + i) % mix.size()];
            const Clock::time_point queryStart = Clock::now();
            try {
              const QueryResult answer = runQuery(query, perflog, meta, nullptr);
              pass.digests.push_back(queryKey(query) + "=" + answer.digest);
              if (!answer.problem.empty()) pass.problems.push_back(answer.problem);
            } catch (const std::exception& e) {
              ++pass.failed;
              std::cerr << "perfbench: query threw: " << e.what() << "\n";
            }
            pass.opMs.push_back(secondsSince(queryStart) * 1000.0);
            ++pass.ops;
          }
          pass.wallSeconds = secondsSince(start);
          const ProcCounters delta = readCounters() - before;
          pass.cpuSeconds = delta.cpuSeconds;
          pass.fsyncSeconds = delta.fsyncSeconds;
          return pass;
        },
        [&] { next += kBlock; });
    addEndToEnd(result, passes, setup, Ops::kUnaligned);
  } else {
    SpanRecorder spans;
    double tracedWall = 0.0, untracedWall = 0.0, untracedCpu = 0.0;
    std::size_t pairs = 0;
    std::uint64_t rows = 0;
    while (pairs < 16 || secondsSince(phase) < args.seconds) {
      const Query& query = mix[next++ % mix.size()];
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side == 0) == (pairs % 2 == 1);
        const ProcCounters before = readCounters();
        const Clock::time_point start = Clock::now();
        ++result.attempted;
        try {
          const QueryResult answer =
              runQuery(query, perflog, meta, traced ? &spans : nullptr);
          check(query, answer);
          if (traced) rows += answer.rows;
        } catch (const std::exception& e) {
          ++result.failed;
          result.problems.push_back(std::string("query threw: ") + e.what());
        }
        const double wall = secondsSince(start);
        if (traced) {
          tracedWall += wall;
        } else {
          untracedWall += wall;
          untracedCpu += (readCounters() - before).cpuSeconds;
        }
      }
      ++pairs;
    }
    const double n = static_cast<double>(pairs);
    Layers layers;
    setSpanMetric(layers, spans, "postproc.parse_ms_per_op",
                  {"postproc.parse"}, n);
    setSpanMetric(layers, spans, "postproc.kernel_ms_per_op",
                  {"postproc.kernel"}, n);
    setSpanMetric(layers, spans, "postproc.detect_ms_per_op",
                  {"postproc.detect"}, n);
    layers.set("postproc.rows_per_s",
               ratio(static_cast<double>(rows), tracedWall), pairs);
    layers.set("framework.cpu_utilisation", ratio(untracedCpu, untracedWall), pairs);
    // Both sides ran the same queries, so their summed walls compare.
    addLayers(result, layers, ratio(tracedWall, untracedWall) - 1.0,
              tracedWall, spans, pairs);
    result.digest = all.hex();
  }
  removeTree(setup.templateDir);
  return result;
}

}  // namespace

const std::vector<MetricSpec>& endToEndMetrics() {
  static const std::vector<MetricSpec> specs{
      {"ops_per_s", "1/s"},    {"cpu_ms_per_op", "ms"}, {"op_ms_p50", "ms"},
      {"op_ms_p90", "ms"},     {"peak_rss_mb", "MiB"},  {"setup_s", "s"},
  };
  return specs;
}

const std::vector<MetricSpec>& perLayerMetrics() {
  static const std::vector<MetricSpec> specs{
      {"service.queue_scan_ms_per_op", "ms"},
      {"service.queue_files_read_per_op", "count"},
      {"service.key_ms_per_op", "ms"},
      {"service.journal_replay_ms", "ms"},
      {"service.journal_ms_per_op", "ms"},
      {"service.fsyncs_per_op", "count"},
      {"service.fsync_ms_per_op", "ms"},
      {"service.bytes_written_per_op", "B"},
      {"service.verdict_ms_per_op", "ms"},
      {"service.health_ms_per_op", "ms"},
      {"service.flightrec_files_per_op", "count"},
      {"service.failed_verdict_ratio", "ratio"},
      {"service.reexecuted_ratio", "ratio"},
      {"store.runcache_lookup_ms_per_op", "ms"},
      {"store.runcache_hit_ratio", "ratio"},
      {"store.manifest_ms_per_op", "ms"},
      {"store.objects_put_per_op", "count"},
      {"store.bytes_put_per_op", "B"},
      {"store.build_hit_ratio", "ratio"},
      {"store.singleflight_dedup_ratio", "ratio"},
      {"framework.campaign_ms_per_op", "ms"},
      {"framework.runs_per_op", "count"},
      {"framework.perflog_serialize_ms_per_op", "ms"},
      {"framework.cpu_utilisation", "ratio"},
      {"history.append_ms_per_op", "ms"},
      {"history.gate_ms_per_op", "ms"},
      {"history.records_per_gate", "count"},
      {"telemetry.flightrec_ms_per_op", "ms"},
      {"postproc.parse_ms_per_op", "ms"},
      {"postproc.kernel_ms_per_op", "ms"},
      {"postproc.detect_ms_per_op", "ms"},
      {"postproc.rows_per_s", "1/s"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.coverage", "ratio"},
  };
  return specs;
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"serve_cold", "serve_warm",
                                              "campaign_jobs",
                                              "perflog_report"};
  return names;
}

Result runWorkload(const RunArgs& args) {
  if (args.workload == "serve_cold") return runServe(args, false);
  if (args.workload == "serve_warm") return runServe(args, true);
  if (args.workload == "campaign_jobs") return runCampaign(args);
  if (args.workload == "perflog_report") return runPerflogReport(args);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace perfbench
