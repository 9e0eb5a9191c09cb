// The `rebench` command-line tool — the user-facing surface of the
// framework, shaped after the ReFrame invocations in the paper's appendix.
// Every subcommand's flags are declared in commands.cpp.
#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "babelstream/testcase.hpp"
#include "cli/args.hpp"
#include "core/concretizer/concretizer.hpp"
#include "core/fault/journal.hpp"
#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/infer/controller.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/openmetrics.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/postproc/chrome_export.hpp"
#include "core/postproc/critical_path.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/postproc/profile.hpp"
#include "core/postproc/trace_report.hpp"
#include "core/postproc/plot.hpp"
#include "core/postproc/hygiene.hpp"
#include "core/postproc/regression.hpp"
#include "core/postproc/stats.hpp"
#include "core/service/queue.hpp"
#include "core/service/record.hpp"
#include "core/service/service.hpp"
#include "core/store/build_cache.hpp"
#include "core/store/manifest.hpp"
#include "core/store/object_store.hpp"
#include "core/telemetry/bus.hpp"
#include "core/telemetry/http.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"
#include "core/util/table.hpp"
#include "hpcg/testcase.hpp"
#include "hpgmg/testcase.hpp"
#include "suite/builtin_suite.hpp"

namespace rebench::cli {
namespace {

int listSystems() {
  const SystemRegistry systems = builtinSystems();
  AsciiTable table("configured systems:");
  table.setHeader({"system:partition", "processor", "nodes", "scheduler",
                   "launcher", "model"});
  for (const std::string& name : systems.systemNames()) {
    const SystemConfig& sys = systems.get(name);
    for (const PartitionConfig& part : sys.partitions) {
      table.addRow({sys.name + ":" + part.name, part.processor.model,
                    std::to_string(part.numNodes),
                    std::string(schedulerName(part.scheduler)),
                    std::string(launcherName(part.launcher)),
                    part.machineModel.empty() ? "(native)"
                                              : part.machineModel});
    }
  }
  std::cout << table.render();
  return 0;
}

int listPackages() {
  const PackageRepository repo = builtinRepository();
  AsciiTable table("package recipes:");
  table.setHeader({"package", "newest", "versions", "description"});
  for (const std::string& name : repo.packageNames()) {
    const PackageRecipe& recipe = repo.get(name);
    table.addRow({name,
                  recipe.versions().empty()
                      ? "-"
                      : recipe.versions().front().toString(),
                  std::to_string(recipe.versions().size()),
                  recipe.description()});
  }
  std::cout << table.render();
  return 0;
}

int showSpec(const Args& args) {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  // --env-file lets a user concretize against a hand-authored system
  // environment (see `rebench env` for the format) without recompiling.
  SystemEnvironment environment;
  if (auto envFile = args.option("env-file")) {
    const std::optional<std::string> text = readWholeFile(*envFile);
    if (!text) throw Error("cannot read file '" + *envFile + "'");
    environment = parseEnvironmentConfig(*text);
  } else {
    environment = systems.resolve(args.option("system").value_or("local"))
                      .first->environment;
  }
  Concretizer concretizer(repo, environment);
  const ConcretizationResult result =
      concretizer.concretize(Spec::parse(args.positionals().front()));
  std::cout << result.root->tree();
  if (args.hasFlag("trace")) {
    std::cout << "\ntrace:\n";
    for (const std::string& line : result.trace) {
      std::cout << "  " << line << "\n";
    }
  }
  return 0;
}

/// Builds the run-mode test from a normalized invocation (from CLI flags,
/// a manifest under `replay` or a queued submission under `serve`).  Bad
/// settings are a UsageError: exit 2, or a permanent failure under serve.
RegressionTest buildTest(const store::CampaignInvocation& inv) {
  for (const auto& [key, value] : inv.settings) checkSetting(key, value);
  if (inv.benchmark == "babelstream") {
    babelstream::BabelstreamTestOptions options;
    if (inv.ntimes > 0) options.ntimes = inv.ntimes;
    for (const auto& [key, value] : inv.settings) {
      if (key == "model") options.model = value;
      if (key == "array_size") options.arraySize = std::stoull(value);
    }
    return babelstream::makeBabelstreamTest(options);
  }
  if (inv.benchmark == "hpcg") {
    hpcg::HpcgTestOptions options;
    for (const auto& [key, value] : inv.settings) {
      if (key == "operator") options.variant = hpcg::variantFromName(value);
      if (key == "num_tasks") options.numTasks = std::stoi(value);
      if (key == "grid") options.gridSize = std::stoi(value);
      if (key == "multigrid") options.multigrid = value == "1" || value == "true";
    }
    return hpcg::makeHpcgTest(options);
  }
  if (inv.benchmark == "hpgmg") {
    hpgmg::HpgmgTestOptions options;
    for (const auto& [key, value] : inv.settings) {
      if (key == "num_tasks") options.numTasks = std::stoi(value);
      if (key == "num_tasks_per_node") {
        options.numTasksPerNode = std::stoi(value);
      }
      if (key == "num_cpus_per_task") {
        options.numCpusPerTask = std::stoi(value);
      }
      if (key == "log2_box_dim") options.log2BoxDim = std::stoi(value);
      if (key == "boxes_per_rank") {
        options.targetBoxesPerRank = std::stoi(value);
      }
    }
    return hpgmg::makeHpgmgTest(options);
  }
  throw UsageError("--benchmark must be babelstream, hpcg or hpgmg (got '" +
                   inv.benchmark + "')");
}

/// Maps an invocation to its tests: the one benchmark in run mode, the
/// builtin-suite selection otherwise.  run, suite, replay and serve all
/// resolve through here; the optional hooks trace the suite selection.
std::vector<RegressionTest> resolveTests(
    const store::CampaignInvocation& inv, obs::Tracer* tracer = nullptr,
    obs::MetricsRegistry* metrics = nullptr) {
  if (inv.mode == "run") return {buildTest(inv)};
  return builtinSuite().select(inv.tag, inv.namePattern, inv.excludePattern,
                               tracer, metrics);
}

int showEnv(const Args& args) {
  const SystemRegistry systems = builtinSystems();
  const auto [sys, part] =
      systems.resolve(args.option("system").value_or("local"));
  std::cout << sys->environment.renderConfig();
  return 0;
}

int audit(const Args& args) {
  const auto path = args.option("perflog");
  HygieneOptions options;
  options.requireReferences = args.hasFlag("strict");
  auto findings = auditPerflogFile(*path, options);
  if (auto manifestPath = args.option("manifest")) {
    const store::CampaignManifest manifest =
        store::CampaignManifest::read(*manifestPath);
    const PerfLog::LenientParse parsed = PerfLog::readFileLenient(*path);
    const auto stale = auditAgainstManifest(parsed.entries, manifest);
    findings.insert(findings.end(), stale.begin(), stale.end());
  }
  std::cout << renderHygieneReport(findings);
  return findings.empty() ? 0 : 1;
}

/// Observability state for one CLI invocation; tracing is active when
/// --trace DIR was given (one trace.jsonl per invocation lands in DIR),
/// metrics collection also when --metrics-out FILE asked for an
/// OpenMetrics export without a trace.
struct TraceSession {
  std::optional<std::string> dir;
  std::optional<std::string> metricsOut;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  explicit TraceSession(const Args& args)
      : dir(args.option("trace")), metricsOut(args.option("metrics-out")) {}
  bool active() const { return dir.has_value(); }

  void attach(PipelineOptions& options) {
    if (active()) options.tracer = &tracer;
    if (active() || metricsOut.has_value()) options.metrics = &metrics;
  }
  /// Trace bytes are serialized exactly once per campaign (before any
  /// artifact is stored), so the --trace file and the manifest's "trace"
  /// artifact hash describe the same bytes.
  std::string serialize() { return tracer.toJsonl(&metrics); }
  void write(const std::string& bytes) {
    if (!active()) return;
    std::filesystem::create_directories(*dir);
    const std::string path =
        (std::filesystem::path(*dir) / "trace.jsonl").string();
    std::ofstream out(path);
    out << bytes;
    std::cout << "trace written to " << path << "\n";
  }

  /// --metrics-out: the registry plus per-(test, target, fom) aggregates
  /// as OpenMetrics text.  Registry merge order and aggregate order are
  /// both canonical, so these bytes are identical at every --jobs width.
  void writeMetrics(std::span<const history::FomAggregate> foms) {
    if (!metricsOut.has_value()) return;
    std::vector<obs::MetricSample> samples;
    for (const history::FomAggregate& fom : foms) {
      const std::map<std::string, std::string> labels{
          {"test", fom.test}, {"target", fom.target}, {"fom", fom.fom}};
      for (const auto& [stat, value] :
           {std::pair<const char*, double>{"mean", fom.mean},
            {"min", fom.min},
            {"max", fom.max}}) {
        auto statLabels = labels;
        statLabels["stat"] = stat;
        samples.push_back({"rebench_fom_stat", std::move(statLabels), value});
      }
      samples.push_back({"rebench_fom_repeats", labels,
                         static_cast<double>(fom.repeats)});
      samples.push_back({"rebench_fom_ci_halfwidth", labels, fom.ciHalfwidth});
      samples.push_back({"rebench_fom_ess", labels, fom.ess});
    }
    // Grouped by family, because the renderer emits one # TYPE header per
    // run of equal family names, and family-sorted so the extras section
    // obeys the same lexicographic order as the registry dump
    // (metrics_lint checks this); the sort is stable, keeping the
    // canonical aggregate order within each family.
    std::stable_sort(samples.begin(), samples.end(),
                     [](const obs::MetricSample& a,
                        const obs::MetricSample& b) {
                       return a.family < b.family;
                     });
    std::ofstream out(*metricsOut, std::ios::binary);
    if (!out) throw Error("cannot write metrics file '" + *metricsOut + "'");
    out << obs::renderOpenMetrics(metrics, samples);
    std::cout << "metrics written to " << *metricsOut << "\n";
  }
};

/// Prints the adaptive controller's per-(test, target, fom) decisions.
void printInferenceDecisions(const infer::ControllerReport& inference) {
  for (const infer::FomDecision& d : inference.decisions) {
    std::cout << "infer: " << d.test << " @ " << d.target << " " << d.fom
              << ": mean " << str::fixed(d.estimate.mean, 2) << " +/- "
              << str::fixed(d.estimate.ciHalfwidth, 2) << " ("
              << str::fixed(d.estimate.ciRelative * 100.0, 2)
              << "% rel, ess " << str::fixed(d.estimate.ess, 1)
              << ") after " << d.estimate.n << " repeat(s) in " << d.rounds
              << " round(s)" << (d.converged ? "" : " [hit --max-repeats]")
              << "\n";
  }
}

/// Normalizes the run/suite CLI flags into the invocation record a
/// campaign manifest stores (and `rebench replay` re-executes).
store::CampaignInvocation invocationFromArgs(const Args& args,
                                             const std::string& mode) {
  store::CampaignInvocation inv;
  inv.mode = mode;
  inv.system = args.option("system").value_or("local");
  inv.account = args.option("account").value_or("ec999");
  inv.repeats = args.intOptionOr("repeats", 1);
  inv.benchmark = args.option("benchmark").value_or("");
  inv.ntimes = args.intOptionOr("ntimes", -1);
  inv.settings = args.settings();
  inv.tag = args.option("tag").value_or("");
  inv.namePattern = args.option("n").value_or("");
  inv.excludePattern = args.option("x").value_or("");
  inv.faults = args.option("faults").value_or("");
  inv.retries = args.intOptionOr("retries", -1);
  inv.backoffBase = args.doubleOptionOr("backoff-base", -1.0);
  inv.backoffMultiplier = args.doubleOptionOr("backoff-mult", -1.0);
  inv.backoffMax = args.doubleOptionOr("backoff-max", -1.0);
  inv.quarantineAfter = args.intOptionOr("quarantine-after", -1);
  inv.stageTimeout = args.doubleOptionOr("stage-timeout", -1.0);
  inv.lanes = args.intOptionOr("lanes", -1);
  inv.ciHalfwidth = args.doubleOptionOr("ci-halfwidth", -1.0);
  inv.minRepeats = args.intOptionOr("min-repeats", -1);
  inv.maxRepeats = args.intOptionOr("max-repeats", -1);
  inv.withStore = args.option("store").has_value();
  inv.cache = !args.hasFlag("no-cache");
  inv.probe = args.option("probe").value_or("");
  if (inv.minRepeats > 0 && inv.maxRepeats > 0 &&
      inv.maxRepeats < inv.minRepeats) {
    throw UsageError("--max-repeats must be >= --min-repeats");
  }
  return inv;
}

/// Store state for one CLI invocation; active when --store DIR was given.
/// Owns the object store, writes the campaign manifest under
/// DIR/manifests/ and prints the cache-hit summary.
struct StoreSession {
  std::optional<store::ObjectStore> store;
  bool cache = true;
  bool coldStart = true;
  std::string manifestHash;  // set by writeManifest

  explicit StoreSession(const Args& args) : cache(!args.hasFlag("no-cache")) {
    if (auto dir = args.option("store")) {
      store.emplace(*dir);
      coldStart = store->objectCount() == 0;
    }
  }
  bool active() const { return store.has_value(); }

  void attach(PipelineOptions& options) {
    if (!active()) return;
    options.store = &*store;
    options.cacheBuilds = cache;
  }

  /// Records the finished campaign: artifacts go into the object store,
  /// the manifest lands in DIR/manifests/campaign-<hash>.json (plus a
  /// latest.json convenience copy).  The trace artifact is only pinned
  /// when this campaign started cache-cold (or caching was off): warm
  /// cache state changes the store.* spans, so those trace bytes would
  /// not be reproducible by a from-scratch replay.
  void writeManifest(const store::CampaignInvocation& inv,
                     std::span<const TestRunResult> results,
                     const PerfLog& perflog, const std::string* traceBytes) {
    if (!active()) return;
    const service::ManifestWrite written = service::writeCampaignManifest(
        *store, inv, results, perflog, traceBytes, coldStart || !cache);
    manifestHash = written.hash;
    std::cout << "manifest written to " << written.path << "\n";
  }

  /// Appends one history record per (test, target, fom) aggregate to the
  /// store's hash-chained history (see core/history).  Runs after
  /// writeManifest so records can cite the manifest hash; runs after
  /// trace serialization so history store traffic never lands in the
  /// campaign's trace bytes (the manifest hashes those).
  void appendHistory(std::span<const history::FomAggregate> foms,
                     std::span<const TestRunResult> results,
                     const SystemRegistry& systems) {
    if (!active() || foms.empty()) return;
    const service::ExecutedRecord outcome = service::summarizeCampaignOutcome(
        results, foms, manifestHash, /*perflogHash=*/"");
    // skipIfCited=false: on the CLI path repeated identical campaigns
    // are distinct observations (the serve daemon passes true).
    const service::HistoryAppendResult appended =
        service::appendCampaignHistory(*store, outcome, systems,
                                       /*skipIfCited=*/false);
    std::cout << "history: appended " << appended.records
              << " record(s) in segment " << appended.segment << "\n";
  }

  void printSummary(const Pipeline& pipeline) {
    if (!active()) return;
    if (const store::BuildCache* buildCache = pipeline.buildCache()) {
      std::cout << "store: " << buildCache->stats().hits << " cache hit(s), "
                << buildCache->stats().misses << " rebuilt, "
                << buildCache->stats().singleFlightDeduped
                << " deduped by single-flight, "
                << store->stats().evictions << " evicted - "
                << store->objectCount() << " object(s), "
                << store->totalBytes() << " bytes in " << store->dir()
                << "\n";
    } else {
      std::cout << "store: build caching disabled (--no-cache)\n";
    }
  }
};

/// The marker `run` and `suite` print before each result.
const char* outcomeMarker(const TestRunResult& result) {
  return result.passed ? " OK " : result.quarantined ? "QUAR" : "FAIL";
}

/// `run` prints every repeat: its outcome, with --verbose the spec and
/// launch line, then the failure or the FOMs and energy.
void printRunResults(const Args& args,
                     const service::CampaignExecution& execution,
                     const PerfLog& perflog) {
  for (const TestRunResult& result : execution.results) {
    std::cout << "[" << outcomeMarker(result) << "] " << result.testName
              << " @ " << result.system << ":" << result.partition << " ("
              << result.environ << ")\n";
    if (args.hasFlag("verbose") && result.concreteSpec != nullptr) {
      std::cout << "  spec:   " << result.concreteSpec->shortForm() << "\n";
      std::cout << "  launch: " << result.launchCommand << "\n";
    }
    if (!result.passed) {
      std::cout << "  " << result.failure.stage << " ["
                << failureClassName(result.failure.klass)
                << "]: " << result.failure.detail;
      if (result.attempts > 1) {
        std::cout << " (after " << result.attempts << " attempts)";
      }
      std::cout << "\n";
      continue;
    }
    for (const auto& [fom, value] : result.foms) {
      std::cout << "  " << str::padRight(fom, 8) << " = "
                << str::fixed(value, 2) << "\n";
    }
    if (!result.telemetry.empty()) {
      std::cout << "  energy   = "
                << str::fixed(result.telemetry.energyJoules(), 0) << " J ("
                << str::fixed(result.telemetry.meanPowerWatts(), 0)
                << " W mean, " << result.contentionFlags.size()
                << " contended samples)\n";
    }
  }
  if (execution.adaptive) printInferenceDecisions(execution.inference);
  if (perflog.size() > 0 && args.option("perflog")) {
    std::cout << perflog.size() << " perflog entries appended to "
              << *args.option("perflog") << "\n";
  }
}

/// `suite` prints one line per result, the campaign summary and, with
/// --jobs above 1, the executor's accounting.
void printSuiteResults(const service::CampaignExecution& execution,
                       const CampaignReport& report, int jobs) {
  for (const TestRunResult& result : execution.results) {
    std::cout << "[" << outcomeMarker(result) << "] " << result.testName
              << " @ " << result.system << ":" << result.partition;
    if (!result.passed) {
      std::cout << "  (" << result.failure.stage << " ["
                << failureClassName(result.failure.klass)
                << "]: " << result.failure.detail << ")";
    }
    std::cout << "\n";
  }
  std::cout << renderCampaignSummary(summarizeCampaign(execution.results),
                                     &report);
  if (jobs > 1) {
    std::cout << "executor: " << report.executed << " campaign(s) on "
              << jobs << " worker(s), " << report.uniqueBuilds
              << " unique build(s), " << report.dedupedBuilds
              << " deduped; simulated " << str::fixed(
                     report.simulatedSerialSeconds, 1)
              << "s serial -> " << str::fixed(
                     report.simulatedMakespanSeconds, 1)
              << "s makespan (" << report.workerLanesTouched
              << " worker lane(s) touched)\n";
  }
  if (execution.adaptive) printInferenceDecisions(execution.inference);
}

/// `rebench run` and `rebench suite`: one campaign from invocation to
/// artifacts.  Tests resolve and execute exactly as under `replay` and
/// `serve`, so a recorded invocation means the same campaign everywhere;
/// only the result printout differs between the two commands.
int runCampaign(const Args& args) {
  const std::string& mode = args.subcommand();
  const store::CampaignInvocation invocation = invocationFromArgs(args, mode);
  PipelineOptions options = service::pipelineOptionsFor(invocation);
  // Deliberately not part of the invocation/manifest: output bytes are
  // identical for every job count, so the manifest stays jobs-invariant
  // (and replay may use any worker count).
  options.jobs = args.intOptionOr("jobs", 1);
  TraceSession trace(args);
  trace.attach(options);
  const std::vector<RegressionTest> tests =
      resolveTests(invocation, options.tracer, options.metrics);
  if (tests.empty()) throw UsageError("no tests match the selection");
  StoreSession storeSession(args);
  storeSession.attach(options);
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  Pipeline pipeline(systems, repo, options);
  PerfLog perflog(args.option("perflog").value_or(""));

  std::optional<RunJournal> journal;
  if (auto resumeDir = args.option("resume")) {
    journal.emplace(*resumeDir);
    if (journal->corruptLines() > 0) {
      std::cerr << "suite: journal had " << journal->corruptLines()
                << " corrupt line(s), ignored\n";
    }
  }

  const std::vector<std::string> targets{invocation.system};
  CampaignReport report;
  const service::CampaignExecution execution = service::executeCampaign(
      pipeline, tests, targets, invocation, &perflog,
      journal ? &*journal : nullptr, &report);
  const std::vector<TestRunResult>& results = execution.results;
  if (mode == "run") {
    printRunResults(args, execution, perflog);
  } else {
    printSuiteResults(execution, report, options.jobs);
  }

  const std::string traceBytes = trace.active() ? trace.serialize() : "";
  const auto fomAggregates = history::aggregateFoms(results);
  storeSession.writeManifest(invocation, results, perflog,
                             trace.active() ? &traceBytes : nullptr);
  storeSession.appendHistory(fomAggregates, results, systems);
  storeSession.printSummary(pipeline);
  trace.write(traceBytes);
  trace.writeMetrics(fomAggregates);
  const bool allPassed = std::all_of(
      results.begin(), results.end(),
      [](const TestRunResult& result) { return result.passed; });
  return allPassed ? 0 : 1;
}

/// `rebench replay <manifest>` — re-executes the recorded invocation
/// from scratch and diffs the regenerated artifact bytes against the
/// hashes the manifest pinned.  Exit 0 only when every artifact is
/// byte-exact; any divergence means the campaign is not reproducible
/// from its manifest (code, environment or configuration drifted).
int replay(const Args& args) {
  const std::string manifestPath = args.positionals().front();
  const store::CampaignManifest manifest =
      store::CampaignManifest::read(manifestPath);
  const store::CampaignInvocation& invocation = manifest.invocation;
  if (invocation.mode != "run" && invocation.mode != "suite") {
    throw UsageError("manifest records no replayable invocation (mode '" +
                     invocation.mode + "')");
  }
  bool wantTrace = false;
  for (const store::ArtifactRecord& artifact : manifest.artifacts) {
    if (artifact.name == "trace") wantTrace = true;
  }

  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  PipelineOptions options = service::pipelineOptionsFor(invocation);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  if (wantTrace) {
    options.tracer = &tracer;
    options.metrics = &metrics;
  }
  // The original campaign only pinned its trace when it started cache-
  // cold, so a fresh throwaway store reproduces the same store.* spans;
  // replay never reuses prior state (that would let a stale artifact
  // masquerade as a reproduction).
  std::filesystem::path scratch;
  std::optional<store::ObjectStore> scratchStore;
  if (invocation.withStore && invocation.cache) {
    scratch = std::filesystem::temp_directory_path() /
              ("rebench-replay-" + manifest.contentHash());
    std::filesystem::remove_all(scratch);
    scratchStore.emplace(scratch.string());
    options.store = &*scratchStore;
  }

  const std::vector<RegressionTest> tests =
      resolveTests(invocation, options.tracer, options.metrics);
  Pipeline pipeline(systems, repo, options);
  PerfLog perflog;
  const std::vector<std::string> targets{invocation.system};
  service::executeCampaign(pipeline, tests, targets, invocation, &perflog,
                           nullptr, nullptr);

  std::map<std::string, std::string> replayed;
  replayed["perflog"] = service::perflogBytes(perflog);
  if (wantTrace) replayed["trace"] = tracer.toJsonl(&metrics);
  if (!scratch.empty()) std::filesystem::remove_all(scratch);

  const store::ReplayComparison comparison =
      store::compareArtifacts(manifest, replayed);
  std::cout << "replaying " << manifestPath << " (" << invocation.mode
            << " @ " << invocation.system << ", "
            << manifest.runs.size() << " recorded run(s))\n";
  std::cout << store::renderReplayReport(comparison);
  return comparison.allExact() ? 0 : 1;
}

/// --chrome FILE on trace-report/profile: exports the catapult JSON.
/// The scheduled-lanes process group needs a profile; traces without
/// profilable spans (e.g. spec traces) export the recorded timeline only.
void writeChromeTrace(const obs::TraceFile& trace, const std::string& path,
                      const postproc::TraceProfile* profile) {
  postproc::TraceProfile empty;
  if (profile == nullptr) {
    try {
      empty = postproc::profileTrace(trace);
    } catch (const Error&) {
    }
    profile = &empty;
  }
  std::ofstream out(path);
  if (!out) throw Error("cannot write chrome trace '" + path + "'");
  out << postproc::renderChromeTrace(trace, *profile);
  // stderr, so the report on stdout stays byte-comparable across
  // invocations that name their export file differently.
  std::cerr << "chrome trace written to " << path << "\n";
}

int traceReport(const Args& args) {
  const obs::TraceFile trace =
      obs::readTraceFile(args.positionals().front());
  const std::vector<std::string> issues = obs::lintTrace(trace);
  for (const std::string& issue : issues) {
    std::cerr << "trace-report: warning: " << issue << "\n";
  }
  if (args.hasFlag("json")) {
    std::cout << "{\"schema\":\"rebench.trace_report/1\",\"spans\":"
              << trace.spans.size() << ",\"events\":" << trace.events.size()
              << ",\"stages\":" << stageTableJson(trace)
              << ",\"metrics\":" << metricsJson(trace) << "}\n";
  } else {
    std::cout << renderStageTable(trace);
    if (args.hasFlag("tree")) {
      std::cout << "\n" << renderTraceTree(trace);
    }
    std::cout << "\n" << renderMetricsReport(trace);
  }
  if (auto chromePath = args.option("chrome")) {
    writeChromeTrace(trace, *chromePath, nullptr);
  }
  return 0;
}

/// `rebench profile` — the trace profiling engine.  Plain mode
/// reconstructs the canonical lane schedule of a campaign trace and
/// prints the Gantt/utilization view plus the critical path; `--diff A B`
/// aligns two traces by span name-path instead and exits 1 when the
/// candidate regressed beyond --threshold.
int profileCommand(const Args& args) {
  if (auto baseline = args.option("diff")) {
    // Parsed as `--diff A` (option) + `B` (the operand).
    const obs::TraceFile a = obs::readTraceFile(*baseline);
    const obs::TraceFile b = obs::readTraceFile(args.positionals().front());
    const double threshold = args.doubleOptionOr("threshold", 0.05);
    const postproc::TraceDiff diff = postproc::diffTraces(a, b, threshold);
    if (args.hasFlag("json")) {
      std::cout << "{\"schema\":\"rebench.profile_diff/1\",\"diff\":"
                << postproc::diffJson(diff) << "}\n";
    } else {
      std::cout << postproc::renderDiff(diff);
    }
    return diff.regressions() == 0 ? 0 : 1;
  }

  const obs::TraceFile trace =
      obs::readTraceFile(args.positionals().front());
  for (const std::string& issue : obs::lintTrace(trace)) {
    std::cerr << "profile: warning: " << issue << "\n";
  }
  const postproc::TraceProfile profile = postproc::profileTrace(trace);
  const postproc::CriticalPathReport critical =
      postproc::extractCriticalPath(trace, profile);
  if (args.hasFlag("json")) {
    std::cout << "{\"schema\":\"rebench.profile/1\",\"profile\":"
              << postproc::profileJson(profile)
              << ",\"critical_path\":" << postproc::criticalPathJson(critical)
              << ",\"stages\":" << stageTableJson(trace)
              << ",\"metrics\":" << metricsJson(trace) << "}\n";
  } else {
    std::cout << postproc::renderProfile(profile) << "\n"
              << postproc::renderCriticalPath(critical);
  }
  if (auto chromePath = args.option("chrome")) {
    writeChromeTrace(trace, *chromePath, &profile);
  }
  return 0;
}

int report(const Args& args) {
  const auto path = args.option("perflog");
  DataFrame frame;
  if (const auto cacheDir = args.option("frame-cache")) {
    // Columnar cache path: same bytes out, but repeat reads of a large
    // unchanged perflog skip the parse entirely (content-hash keyed,
    // verified read — corruption degrades to a re-parse).
    store::ObjectStore cache(*cacheDir);
    frame = analysisFrameFromTable(loadOrConvertPerflog(cache, *path).table);
  } else {
    frame = perflogToDataFrame(PerfLog::readFile(*path));
  }
  if (auto fom = args.option("fom")) {
    frame = frame.filterEquals("fom", *fom);
  }
  if (frame.empty()) {
    std::cout << "(no matching entries)\n";
    return 0;
  }
  AsciiTable table("perflog report:");
  table.setHeader({"system", "partition", "test", "fom", "value", "unit",
                   "result"});
  for (std::size_t i = 0; i < frame.rowCount(); ++i) {
    table.addRow({frame.strings("system")[i], frame.strings("partition")[i],
                  frame.strings("test")[i], frame.strings("fom")[i],
                  str::fixed(frame.numeric("value")[i], 2),
                  frame.strings("unit")[i], frame.strings("result")[i]});
  }
  std::cout << table.render();

  if (args.hasFlag("stats")) {
    // H&B-style reporting: per (system, test, fom) summary over repeats.
    std::cout << "\nstatistics per series (Hoefler-Belli reporting):\n";
    std::map<std::string, std::vector<double>> series;
    for (std::size_t i = 0; i < frame.rowCount(); ++i) {
      // Summary rows are already statistics; folding them into the
      // per-repeat series would double-count the mean.
      if (frame.strings("result")[i] == "summary") continue;
      const std::string key = frame.strings("system")[i] + "/" +
                              frame.strings("test")[i] + "/" +
                              frame.strings("fom")[i];
      series[key].push_back(frame.numeric("value")[i]);
    }
    for (const auto& [key, values] : series) {
      const SummaryStats stats = summarize(values);
      std::cout << "  " << key << ": " << renderStats(stats);
      if (!isReportable(stats)) std::cout << "  [NOT REPORTABLE]";
      std::cout << "\n";
    }
  }

  if (args.hasFlag("plot")) {
    std::vector<std::string> labels;
    std::vector<double> values;
    for (std::size_t i = 0; i < frame.rowCount(); ++i) {
      if (frame.strings("result")[i] == "summary") continue;
      labels.push_back(frame.strings("system")[i] + "/" +
                       frame.strings("fom")[i]);
      values.push_back(frame.numeric("value")[i]);
    }
    BarChartOptions chart;
    chart.width = 40;
    std::cout << "\n" << renderBarChart(labels, values, chart);
  }
  return 0;
}

int compare(const Args& args) {
  const auto before = args.option("before");
  const auto after = args.option("after");
  const double threshold = args.doubleOptionOr("threshold", 0.05);
  auto collect = [](const std::string& path) {
    const std::vector<PerfLogEntry> entries = PerfLog::readFile(path);
    std::map<std::string, std::vector<double>> series;
    for (const PerfLogEntry& entry : entries) {
      // Adaptive campaigns append result=summary aggregate rows; only
      // the raw per-repeat observations feed the median comparison.
      if (entry.result == "error" || entry.result == "summary") continue;
      series[entry.system + ":" + entry.partition + "/" + entry.testName +
             "/" + entry.fomName]
          .push_back(entry.value);
    }
    return series;
  };
  const auto beforeSeries = collect(*before);
  const auto afterSeries = collect(*after);

  AsciiTable table("performance comparison (" + *before + " -> " + *after +
                   "):");
  table.setHeader({"series", "before (median)", "after (median)", "delta",
                   "verdict"});
  int regressions = 0;
  for (const auto& [key, beforeValues] : beforeSeries) {
    auto it = afterSeries.find(key);
    if (it == afterSeries.end()) {
      table.addRow({key, str::fixed(summarize(beforeValues).median, 2),
                    "(missing)", "-", "DROPPED"});
      ++regressions;
      continue;
    }
    const double b = summarize(beforeValues).median;
    const double a = summarize(it->second).median;
    const double delta = b != 0.0 ? (a - b) / b : 0.0;
    std::string verdict = "ok";
    if (delta < -threshold) {
      verdict = "REGRESSION";
      ++regressions;
    } else if (delta > threshold) {
      verdict = "improved";
    }
    table.addRow({key, str::fixed(b, 2), str::fixed(a, 2),
                  str::fixed(delta * 100.0, 1) + "%", verdict});
  }
  std::cout << table.render();
  return regressions == 0 ? 0 : 1;
}

/// Store-backed `rebench history`: trend view and regression gate over
/// the hash-chained history the campaigns under --store appended.
int storeHistory(const Args& args, const std::string& storeDir) {
  store::ObjectStore store(storeDir);
  history::HistoryIndex index(store);
  const std::string test =
      args.positionals().empty() ? "" : args.positionals()[0];
  const std::string target =
      args.positionals().size() < 2 ? "" : args.positionals()[1];
  const std::vector<history::HistoryRecord> records =
      index.query(test, target);

  if (args.hasFlag("check")) {
    if (records.empty()) throw UsageError("no matching records to gate");
    history::GateOptions gate;
    gate.window = static_cast<std::size_t>(args.intOptionOr("window", 5));
    gate.threshold = args.doubleOptionOr("threshold", 0.05);
    const std::vector<history::GateResult> verdicts =
        history::checkRegression(records, gate);
    int regressions = 0;
    for (const history::GateResult& verdict : verdicts) {
      if (verdict.regression) ++regressions;
    }
    if (args.hasFlag("json")) {
      std::cout << "{\"schema\":\"rebench.history_gate/1\",\"window\":"
                << gate.window << ",\"threshold\":"
                << str::fixed(gate.threshold, 6)
                << ",\"regressions\":" << regressions << ",\"series\":[";
      bool first = true;
      for (const history::GateResult& verdict : verdicts) {
        if (!first) std::cout << ",";
        first = false;
        std::cout << "{\"series\":" << obs::json::quote(verdict.series)
                  << ",\"insufficient\":"
                  << (verdict.insufficient ? "true" : "false")
                  << ",\"regression\":"
                  << (verdict.regression ? "true" : "false")
                  << ",\"latest\":" << obs::formatMetricValue(verdict.latest)
                  << ",\"baseline\":"
                  << obs::formatMetricValue(verdict.baseline)
                  << ",\"delta\":" << obs::formatMetricValue(verdict.delta)
                  << ",\"baseline_ci\":"
                  << obs::formatMetricValue(verdict.baselineCi)
                  << ",\"latest_ci\":"
                  << obs::formatMetricValue(verdict.latestCi)
                  << ",\"latest_ess\":"
                  << obs::formatMetricValue(verdict.latestEss)
                  << ",\"significant\":"
                  << (verdict.significant ? "true" : "false")
                  << ",\"changepoint\":"
                  << (verdict.changepoint ? "true" : "false")
                  << ",\"changepoint_index\":" << verdict.changepointIndex
                  << ",\"justification\":"
                  << obs::json::quote(verdict.justification) << "}";
      }
      std::cout << "]}\n";
      return regressions > 0 ? 1 : 0;
    }
    for (const history::GateResult& verdict : verdicts) {
      if (verdict.insufficient) {
        std::cout << "[ -- ] " << verdict.series << ": "
                  << verdict.justification << "\n";
        continue;
      }
      std::cout << "[" << (verdict.regression ? "FAIL" : " OK ") << "] "
                << verdict.series << ": " << verdict.justification << "\n";
    }
    if (regressions > 0) {
      std::cout << regressions << " regression(s) detected\n";
      return 1;
    }
    return 0;
  }

  history::RenderOptions options;
  options.json = args.hasFlag("json");
  options.window = static_cast<std::size_t>(args.intOptionOr("window", 5));
  options.changepoint.relThreshold = args.doubleOptionOr("threshold", 0.05);
  std::cout << history::renderHistory(records, options);
  return 0;
}

int history(const Args& args) {
  if (auto storeDir = args.option("store")) {
    return storeHistory(args, *storeDir);
  }
  const auto path = args.option("perflog");
  if (!path) throw UsageError("--store DIR or --perflog F is required");
  std::vector<PerfLogEntry> all = PerfLog::readFile(*path);
  PerfHistory perfHistory;
  std::vector<PerfLogEntry> entries;
  for (PerfLogEntry& entry : all) {
    // result=summary aggregate rows are derived statistics, not
    // longitudinal observations.
    if (entry.result != "summary") entries.push_back(std::move(entry));
  }
  perfHistory.addAll(entries);

  DetectorOptions options;
  options.window = args.intOptionOr("window", 8);
  options.sigmas = args.doubleOptionOr("sigmas", 3.0);
  const auto events =
      args.hasFlag("detect") ? perfHistory.detect(options)
                             : std::vector<RegressionEvent>{};

  for (const SeriesKey& key : perfHistory.keys()) {
    const auto& points = perfHistory.series(key);
    std::cout << key.toString() << ": " << points.size() << " points\n";
    if (points.size() >= 2) {
      std::cout << renderHistoryPlot(points, events, "") << "\n";
    }
  }
  for (const RegressionEvent& event : events) {
    std::cout << "REGRESSION " << event.detail << "\n";
  }
  return events.empty() ? 0 : 1;
}

/// `rebench submit` — drops one campaign invocation into a serve queue
/// (tmp + atomic rename; idempotent by content hash).
int submitCommand(const Args& args) {
  const std::string mode = args.option("benchmark") ? "run" : "suite";
  store::CampaignInvocation inv = invocationFromArgs(args, mode);
  // Submissions always execute against the daemon's store.
  inv.withStore = true;
  const service::Submission sub =
      service::enqueueSubmission(*args.option("queue"), inv);
  std::cout << "submitted " << sub.id << " (" << mode << " @ " << inv.system
            << ") -> " << sub.path << "\n";
  return 0;
}

/// `rebench serve` — the crash-safe continuous-benchmarking daemon (see
/// service/service.hpp and DESIGN.md §14).
int serveCommand(const Args& args) {
  const auto queueDir = args.option("queue");
  if (args.hasFlag("request-drain")) {
    service::requestDrain(*queueDir);
    std::cout << "serve: drain requested for " << *queueDir << "\n";
    return 0;
  }
  if (args.hasFlag("clear-drain")) {
    service::clearDrainRequest(*queueDir);
    std::cout << "serve: drain request cleared for " << *queueDir << "\n";
    return 0;
  }
  const auto storeDir = args.option("store");
  if (!storeDir) throw UsageError("--store DIR is required");
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  TraceSession trace(args);

  service::ServeOptions options;
  options.queueDir = *queueDir;
  options.storeDir = *storeDir;
  options.once = args.hasFlag("once");
  options.jobs = args.intOptionOr("jobs", 1);
  options.quarantineAfter = args.intOptionOr("quarantine-after", 3);
  options.stageTimeout = args.doubleOptionOr("stage-timeout", -1.0);
  options.submissionTimeout =
      args.doubleOptionOr("submission-timeout", -1.0);
  options.crashAfter = args.option("crash-after").value_or("");
  options.listen = args.option("listen").value_or("");
  if (trace.active()) options.tracer = &trace.tracer;
  if (trace.active() || trace.metricsOut.has_value()) {
    options.metrics = &trace.metrics;
  }
  options.log = &std::cout;

  // SIGTERM/SIGINT = graceful drain: finish the submission in flight,
  // snapshot health, exit.
  std::signal(SIGTERM, [](int) { service::Service::requestShutdown(); });
  std::signal(SIGINT, [](int) { service::Service::requestShutdown(); });
  // The resolver is injected so core stays free of benchmark code.
  service::Service daemon(
      systems, repo, std::move(options),
      [](const store::CampaignInvocation& inv) { return resolveTests(inv); });
  const service::ServeReport report = daemon.run();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);

  if (report.crashed) {
    // The crash-after test hook: behave like a killed process — no
    // summary, no trace, distinctive exit code for the harness.
    std::cout << "serve: crashed (crash-after hook)\n";
    return 3;
  }
  const std::string traceBytes = trace.active() ? trace.serialize() : "";
  trace.write(traceBytes);
  trace.writeMetrics({});
  if (!report.endpointAddress.empty()) {
    std::cout << "serve: endpoint " << report.endpointAddress << " answered "
              << report.endpointRequests << " request(s)\n";
  }
  std::cout << "serve: " << report.processed
            << " submission(s) processed - " << report.cached << " cached, "
            << report.executed << " executed (" << report.clean << " clean, "
            << report.regressed << " regressed), " << report.failed
            << " failed, " << report.quarantined << " quarantined, "
            << report.degraded << " degraded\n";
  if (report.drained) {
    std::cout << "serve: drained, " << report.queueDepth
              << " submission(s) remaining in queue\n";
  }
  return 0;
}

/// QUEUE/endpoint.addr, written by a daemon with --listen ("" when no
/// live endpoint is advertised).
std::string readEndpointAddress(const std::string& queueDir) {
  std::ifstream in(std::filesystem::path(queueDir) / "endpoint.addr");
  if (!in) return "";
  std::string addr;
  std::getline(in, addr);
  return std::string(str::trim(addr));
}

/// Prints the scalar fields of a health object (live /health or the
/// health.json snapshot) in a fixed order, skipping absent keys.
void printHealthFields(const obs::json::Value& health) {
  static constexpr std::array<std::string_view, 17> kKeys = {
      "seq",         "uptime_seconds", "processed",
      "cached",      "executed",       "clean",
      "regressed",   "failed",         "quarantined",
      "degraded",    "malformed",      "watchdog_fires",
      "queue_depth", "runcache_hits",  "runcache_misses",
      "watchdog_arms", "verdicts"};
  for (const std::string_view key : kKeys) {
    const std::string name(key);
    if (!health.contains(name)) continue;
    const double value = health.numberOr(name, 0.0);
    std::cout << "  " << str::padRight(name, 16) << " ";
    if (value == static_cast<double>(static_cast<long long>(value))) {
      std::cout << static_cast<long long>(value) << "\n";
    } else {
      std::cout << str::fixed(value, 3) << "\n";
    }
  }
  for (const std::string_view key :
       {std::string_view("inflight_submission"),
        std::string_view("inflight_stage")}) {
    const std::string name(key);
    const std::string value = health.stringOr(name, "");
    if (!value.empty()) {
      std::cout << "  " << str::padRight(name, 16) << " " << value << "\n";
    }
  }
}

/// Summarizes the newest QUEUE/flightrec-<n>.jsonl: event/drop counts
/// from the meta line plus the last recorded event, which a post-mortem
/// reads next to the journal's claimed state.
void printFlightRecordSummary(const std::string& queueDir) {
  namespace fs = std::filesystem;
  const std::string newest = telemetry::newestFlightRecord(queueDir);
  if (newest.empty()) return;
  std::ifstream in(newest);
  std::string line;
  std::string meta;
  std::string last;
  while (std::getline(in, line)) {
    if (str::trim(line).empty()) continue;
    if (meta.empty()) {
      meta = line;
    } else {
      last = line;
    }
  }
  if (meta.empty()) return;
  try {
    const obs::json::Value header = obs::json::parse(meta);
    std::cout << "flight record: "
              << fs::path(newest).filename().string() << " ("
              << static_cast<long long>(header.numberOr("events", 0))
              << " event(s), "
              << static_cast<long long>(header.numberOr("dropped", 0))
              << " dropped)\n";
    if (!last.empty()) {
      const obs::json::Value event = obs::json::parse(last);
      std::cout << "  last event: seq "
                << static_cast<long long>(event.numberOr("seq", 0)) << " "
                << event.stringOr("kind", "?") << "/"
                << event.stringOr("stage", "?");
      const std::string submission = event.stringOr("submission", "");
      if (!submission.empty()) std::cout << " (" << submission << ")";
      std::cout << "\n";
    }
  } catch (const Error& e) {
    std::cout << "flight record: " << newest << " unparseable: " << e.what()
              << "\n";
  }
}

/// `rebench status` — live TTY view of a serve queue: health via the
/// --listen endpoint when one is advertised (QUEUE/endpoint.addr),
/// falling back to the health.json snapshot; plus the newest flight
/// record.  --fetch PATH prints one endpoint response verbatim (the
/// in-test HTTP client); --follow streams /verdicts as they are filed.
int statusCommand(const Args& args) {
  const auto queueDir = args.option("queue");
  const std::string addr = readEndpointAddress(*queueDir);

  if ((args.option("fetch") || args.hasFlag("follow")) && addr.empty()) {
    throw UsageError("--fetch and --follow need a live endpoint (" +
                     *queueDir + "/endpoint.addr missing)");
  }
  if (const auto fetch = args.option("fetch")) {
    std::cout << telemetry::httpGet(addr, *fetch);
    return 0;
  }

  if (args.hasFlag("follow")) {
    std::uint64_t since = 0;
    while (true) {
      std::string body;
      try {
        body = telemetry::httpGet(
            addr, "/verdicts?since=" + std::to_string(since));
      } catch (const Error&) {
        std::cout << "status: endpoint gone (daemon exited)\n";
        return 0;
      }
      std::istringstream lines(body);
      std::string line;
      while (std::getline(lines, line)) {
        if (str::trim(line).empty()) continue;
        std::cout << line << "\n" << std::flush;
        try {
          const obs::json::Value verdict = obs::json::parse(line);
          since = std::max(
              since, static_cast<std::uint64_t>(verdict.numberOr("seq", 0)));
        } catch (const Error&) {
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  }

  bool printed = false;
  if (!addr.empty()) {
    try {
      const std::string body = telemetry::httpGet(addr, "/health");
      std::cout << "status: live endpoint at " << addr << "\n";
      printHealthFields(obs::json::parse(str::trim(body)));
      printed = true;
    } catch (const Error& e) {
      std::cout << "status: stale endpoint.addr (" << addr
                << " unreachable: " << e.what() << ")\n";
    }
  }
  if (!printed) {
    const std::string healthPath =
        (std::filesystem::path(*queueDir) / "health.json").string();
    if (const auto text = readWholeFile(healthPath)) {
      std::cout << "status: snapshot from " << healthPath
                << " (no live endpoint)\n";
      printHealthFields(obs::json::parse(str::trim(*text)));
      printed = true;
    }
  }
  if (!printed) {
    std::cout << "status: no health information in " << *queueDir
              << " (daemon never ran?)\n";
  }
  printFlightRecordSummary(*queueDir);
  return printed ? 0 : 1;
}

int dispatch(const Args& args) {
  static const std::map<std::string_view, int (*)(const Args&)> kHandlers = {
      {"list-systems", [](const Args&) { return listSystems(); }},
      {"list-packages", [](const Args&) { return listPackages(); }},
      {"spec", showSpec},          {"env", showEnv},
      {"audit", audit},            {"run", runCampaign},
      {"suite", runCampaign},      {"replay", replay},
      {"report", report},          {"trace-report", traceReport},
      {"profile", profileCommand}, {"history", history},
      {"compare", compare},        {"submit", submitCommand},
      {"serve", serveCommand},     {"status", statusCommand}};
  if (args.subcommand().empty()) {
    std::cout << usageText();
    return 2;
  }
  return kHandlers.at(args.subcommand())(args);
}

}  // namespace
}  // namespace rebench::cli

int main(int argc, char** argv) {
  try {
    return rebench::cli::dispatch(rebench::cli::Args::parse(argc, argv));
  } catch (const rebench::cli::UsageError& e) {
    std::cerr << "rebench " << (argc > 1 ? argv[1] : "") << ": " << e.what()
              << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "rebench: " << e.what() << "\n";
    return 1;
  }
}
