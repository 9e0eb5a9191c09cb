#include "traced_serve.hpp"

#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/fault/journal.hpp"
#include "core/fault/quarantine.hpp"
#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/obs/json.hpp"
#include "core/service/journal.hpp"
#include "core/service/queue.hpp"
#include "core/service/record.hpp"
#include "core/store/object_store.hpp"
#include "core/store/run_cache.hpp"
#include "core/telemetry/bus.hpp"
#include "core/telemetry/plane.hpp"
#include "core/util/error.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace rebench;
using namespace rebench::service;

namespace {

struct Replica {
  const SystemRegistry& systems;
  const PackageRepository& repo;
  const ServeOptions& options;
  const TestResolver& resolver;
  SpanRecorder& spans;
  store::ObjectStore& store;
  store::RunCache& runCache;
  ServiceJournal& journal;
  CircuitBreaker& breaker;
  telemetry::TelemetryPlane& plane;
  ServeTally& tally;

  std::vector<Submission> scan() {
    SpanRecorder::Scope span(spans, "service.queue_scan");
    std::vector<Submission> subs = scanQueue(options.queueDir);
    ++tally.queueScans;
    tally.queueFilesRead += subs.size();
    return subs;
  }

  int liveQueueDepth() {
    std::vector<Submission> subs = scan();
    SpanRecorder::Scope span(spans, "service.queue_scan");
    int depth = 0;
    for (const Submission& sub : subs) {
      if (!fs::exists(verdictPath(options.queueDir, sub.id))) ++depth;
    }
    return depth;
  }

  void writeHealthSnapshot(const ServeReport& report) {
    SpanRecorder::Scope span(spans, "service.health");
    std::ostringstream out;
    out << "{\"schema\":\"rebench.serve_health/1\""
        << ",\"processed\":" << report.processed
        << ",\"cached\":" << report.cached
        << ",\"executed\":" << report.executed
        << ",\"clean\":" << report.clean
        << ",\"regressed\":" << report.regressed
        << ",\"failed\":" << report.failed
        << ",\"quarantined\":" << report.quarantined
        << ",\"degraded\":" << report.degraded
        << ",\"malformed\":" << report.malformed
        << ",\"watchdog_fires\":" << report.watchdogFires
        << ",\"queue_depth\":" << report.queueDepth
        << ",\"drained\":" << (report.drained ? "true" : "false")
        << ",\"quarantined_keys\":[";
    const std::vector<std::string> open = breaker.openKeys();
    for (std::size_t i = 0; i < open.size(); ++i) {
      if (i > 0) out << ",";
      out << obs::json::quote(open[i]);
    }
    out << "]}\n";
    durableWriteFile((fs::path(options.queueDir) / "health.json").string(),
                     out.str());
  }

  void refreshHealth() {
    ServeReport snapshot = tally.report;
    snapshot.queueDepth = liveQueueDepth();
    writeHealthSnapshot(snapshot);
    plane.setStat("processed", snapshot.processed);
    plane.setStat("cached", snapshot.cached);
    plane.setStat("executed", snapshot.executed);
    plane.setStat("clean", snapshot.clean);
    plane.setStat("regressed", snapshot.regressed);
    plane.setStat("failed", snapshot.failed);
    plane.setStat("quarantined", snapshot.quarantined);
    plane.setStat("degraded", snapshot.degraded);
    plane.setStat("malformed", snapshot.malformed);
    plane.setStat("watchdog_fires", snapshot.watchdogFires);
    plane.setQueueDepth(snapshot.queueDepth);
    plane.setQuarantinedKeys(breaker.openKeys());
  }

  void countVerdict(const Verdict& verdict) {
    ServeReport& report = tally.report;
    if (verdict.verdict == "cached") {
      ++report.cached;
    } else if (verdict.verdict == "ran:clean") {
      ++report.clean;
    } else if (verdict.verdict == "ran:regressed") {
      ++report.regressed;
    } else {
      ++report.failed;
    }
    if (verdict.degraded) ++report.degraded;
  }

  void noteVerdict(const Verdict& verdict) {
    plane.noteVerdict(verdict.submission, verdict.verdict, verdict.degraded,
                      verdict.detail);
    plane.clearInflight();
    if (verdict.verdict.rfind("failed:", 0) == 0) {
      SpanRecorder::Scope span(spans, "telemetry.flightrec");
      telemetry::dumpFlightRecord(options.queueDir, plane.bus());
    }
    if (options.log != nullptr) {
      *options.log << verdict.submission << " " << verdict.verdict
                   << (verdict.degraded ? " (degraded)" : "");
      if (!verdict.detail.empty()) *options.log << " - " << verdict.detail;
      *options.log << "\n";
    }
    refreshHealth();
  }

  void fileVerdict(const Verdict& verdict) {
    SpanRecorder::Scope span(spans, "service.verdict");
    writeVerdict(options.queueDir, verdict);
  }

  void fileDirectVerdict(const Verdict& verdict) {
    fileVerdict(verdict);
    countVerdict(verdict);
    noteVerdict(verdict);
  }

  static VerdictRecord toRecord(const Verdict& verdict) {
    VerdictRecord record;
    record.verdict = verdict.verdict;
    record.key = verdict.key;
    record.manifestHash = verdict.manifestHash;
    record.degraded = verdict.degraded;
    record.detail = verdict.detail;
    return record;
  }

  void process(const Submission& sub) {
    ++tally.report.processed;
    Verdict verdict;
    verdict.submission = sub.id;

    if (!sub.valid) {
      ++tally.report.malformed;
      plane.noteStage(sub.id, "service", "malformed", {{"error", sub.error}});
      verdict.verdict = "failed:permanent";
      verdict.detail = sub.error;
      fileDirectVerdict(verdict);
      return;
    }

    const store::CampaignInvocation& inv = sub.invocation;
    std::vector<RegressionTest> tests;
    try {
      SpanRecorder::Scope span(spans, "service.key");
      tests = resolver(inv);
      if (tests.empty()) throw Error("no tests match the submission");
      verdict.key = runKeyFor(inv, systems, repo, tests);
    } catch (const Error& e) {
      verdict.verdict = "failed:permanent";
      verdict.detail = e.what();
      fileDirectVerdict(verdict);
      return;
    }
    plane.noteStage(sub.id, "service", "accepted", {{"key", verdict.key}});

    const int crashes = journal.crashedClaims(sub.id);
    for (int i = 0; i < crashes; ++i) breaker.recordFailure(sub.id);
    if (!breaker.allows(sub.id)) {
      ++tally.report.quarantined;
      plane.noteStage(sub.id, "service", "quarantine",
                      {{"crashes", std::to_string(crashes)}});
      verdict.verdict = "failed:quarantined";
      verdict.detail = "submission crashed the daemon " +
                       std::to_string(crashes) +
                       " time(s); refusing to retry";
      fileDirectVerdict(verdict);
      return;
    }
    const ServiceJournal::State state = journal.state(sub.id);
    if (state == ServiceJournal::State::kVerdict ||
        state == ServiceJournal::State::kExecuted) {
      throw std::runtime_error(
          "traced replica does not cover crash-resumed submissions");
    }

    store::RunCache::Lookup lookup;
    {
      SpanRecorder::Scope span(spans, "store.runcache_lookup");
      lookup = runCache.lookup(verdict.key);
    }
    ++tally.runCacheLookups;
    plane.noteRunCache(lookup.hit());
    if (lookup.hit()) {
      ++tally.runCacheHits;
      plane.noteStage(sub.id, "runcache", "hit", {{"key", verdict.key}});
      verdict.verdict = "cached";
      verdict.manifestHash = lookup.record->manifestHash;
      verdict.detail = "first ran " + lookup.record->verdict;
      {
        SpanRecorder::Scope span(spans, "service.journal");
        journal.recordVerdict(sub.id, toRecord(verdict));
      }
      plane.noteStage(sub.id, "journal", "verdict",
                      {{"verdict", verdict.verdict}});
      fileVerdict(verdict);
      {
        SpanRecorder::Scope span(spans, "service.journal");
        journal.recordDone(sub.id);
      }
      countVerdict(verdict);
      noteVerdict(verdict);
      breaker.recordSuccess(sub.id);
      return;
    }
    bool degraded = false;
    std::string degradedDetail;
    if (lookup.outcome == store::RunCache::Outcome::kCorrupt) {
      degraded = true;
      degradedDetail = "run-cache record failed verification; re-executed";
    }

    {
      SpanRecorder::Scope span(spans, "service.journal");
      journal.recordClaim(sub.id, verdict.key);
    }
    plane.noteStage(sub.id, "journal", "claim", {{"key", verdict.key}});

    PerfLog perflog;
    CampaignExecution execution;
    {
      SpanRecorder::Scope span(spans, "framework.campaign");
      PipelineOptions pipelineOptions = pipelineOptionsFor(inv);
      pipelineOptions.jobs = std::max(1, options.jobs);
      pipelineOptions.store = &store;
      pipelineOptions.cacheBuilds = inv.cache;
      pipelineOptions.bus = &plane.bus();
      Pipeline pipeline(systems, repo, pipelineOptions);
      const std::vector<std::string> targets{inv.system};
      CampaignReport campaignReport;
      plane.noteStage(sub.id, "exec", "campaign",
                      {{"tests", std::to_string(tests.size())}});
      execution = executeCampaign(pipeline, tests, targets, inv, &perflog,
                                  nullptr, &campaignReport);
    }
    const std::vector<TestRunResult>& results = execution.results;
    ++tally.report.executed;
    tally.runs += results.size();
    for (const TestRunResult& result : results) {
      if (result.failure.detail.rfind("watchdog:", 0) == 0) {
        ++tally.report.watchdogFires;
        plane.noteWatchdogFire();
      }
    }

    std::vector<history::FomAggregate> foms;
    {
      SpanRecorder::Scope span(spans, "history.aggregate");
      foms = history::aggregateFoms(results);
    }
    std::string perflogHash;
    {
      SpanRecorder::Scope span(spans, "framework.perflog_serialize");
      perflogHash = store::ObjectStore::hashBytes(perflogBytes(perflog));
    }
    ManifestWrite manifest;
    {
      SpanRecorder::Scope span(spans, "store.manifest");
      manifest =
          writeCampaignManifest(store, inv, results, perflog, nullptr, false);
    }
    ExecutedRecord outcome;
    {
      SpanRecorder::Scope span(spans, "history.aggregate");
      outcome = summarizeCampaignOutcome(results, foms, manifest.hash,
                                         perflogHash);
    }
    outcome.key = verdict.key;
    {
      SpanRecorder::Scope span(spans, "service.journal");
      journal.recordExecuted(sub.id, outcome);
    }
    plane.noteStage(sub.id, "journal", "executed",
                    {{"runs", std::to_string(outcome.runs)}});

    verdict.manifestHash = outcome.manifestHash;
    bool memoize = false;
    int regressions = 0;
    if (!outcome.failedStage.empty()) {
      const std::string klass =
          outcome.failureClass.empty() ? "permanent" : outcome.failureClass;
      verdict.verdict = "failed:" + klass;
      verdict.detail = outcome.failedStage + ": " + outcome.failureDetail;
    } else {
      try {
        HistoryAppendResult appended;
        {
          SpanRecorder::Scope span(spans, "history.append");
          appended = appendCampaignHistory(store, outcome, systems,
                                           /*skipIfCited=*/true);
        }
        tally.historyRecords += static_cast<std::uint64_t>(appended.records);
        std::vector<history::GateResult> gates;
        {
          SpanRecorder::Scope span(spans, "history.gate");
          gates = gateCampaign(store, outcome, history::GateOptions{});
        }
        ++tally.gates;
        tally.gateRecords += tally.historyRecords;
        for (const history::GateResult& gate : gates) {
          if (gate.regression) ++regressions;
        }
        verdict.verdict = regressions > 0 ? "ran:regressed" : "ran:clean";
        if (regressions > 0) {
          verdict.detail = std::to_string(regressions) + " series regressed";
        }
        memoize = true;
      } catch (const Error& e) {
        degraded = true;
        degradedDetail = std::string("history unreadable: ") + e.what();
        verdict.verdict = "ran:clean";
      }
    }

    if (degraded) {
      verdict.degraded = true;
      verdict.detail = verdict.detail.empty()
                           ? degradedDetail
                           : verdict.detail + "; " + degradedDetail;
      memoize = false;
    }

    if (memoize && verdict.verdict.rfind("ran:", 0) == 0) {
      store::RunRecord record;
      record.key = verdict.key;
      record.verdict = verdict.verdict;
      record.manifestHash = outcome.manifestHash;
      record.perflogHash = outcome.perflogHash;
      record.runs = outcome.runs;
      record.regressions = regressions;
      SpanRecorder::Scope span(spans, "store.runcache_insert");
      runCache.insert(record);
    }

    {
      SpanRecorder::Scope span(spans, "service.journal");
      journal.recordVerdict(sub.id, toRecord(verdict));
    }
    plane.noteStage(sub.id, "journal", "verdict",
                    {{"verdict", verdict.verdict}});
    fileVerdict(verdict);
    {
      SpanRecorder::Scope span(spans, "service.journal");
      journal.recordDone(sub.id);
    }
    countVerdict(verdict);
    noteVerdict(verdict);
    breaker.recordSuccess(sub.id);
  }
};

}  // namespace

ServeTally tracedServe(const SystemRegistry& systems,
                       const PackageRepository& repo,
                       const ServeOptions& options,
                       const TestResolver& resolver, SpanRecorder& spans) {
  if (!options.once || !options.listen.empty() || !options.crashAfter.empty() ||
      options.stageTimeout > 0.0 || options.submissionTimeout > 0.0 ||
      options.tracer != nullptr || options.metrics != nullptr) {
    throw std::runtime_error(
        "traced replica covers only a plain once drain without hooks");
  }
  fs::create_directories(options.queueDir);

  ServeTally tally;
  std::optional<store::ObjectStore> store;
  {
    SpanRecorder::Scope span(spans, "store.open");
    store.emplace(options.storeDir);
  }
  store::RunCache runCache(*store);
  std::optional<ServiceJournal> journal;
  {
    SpanRecorder::Scope span(spans, "service.journal_replay");
    journal.emplace(options.queueDir);
  }
  CircuitBreaker breaker(options.quarantineAfter);
  telemetry::TelemetryPlane plane;
  plane.setWatchdogArms(0);
  Replica replica{systems, repo,    options, resolver, spans, *store,
                  runCache, *journal, breaker, plane,   tally};
  replica.refreshHealth();

  std::set<std::string> processedThisRun;
  for (const Submission& sub : replica.scan()) {
    if (processedThisRun.count(sub.id) > 0) continue;
    if (drainRequested(options.queueDir)) {
      throw std::runtime_error("traced replica does not cover drains");
    }
    replica.process(sub);
    processedThisRun.insert(sub.id);
  }
  for (const Submission& sub : replica.scan()) {
    if (!fs::exists(verdictPath(options.queueDir, sub.id))) {
      ++tally.report.queueDepth;
    }
  }
  replica.writeHealthSnapshot(tally.report);
  return tally;
}

}  // namespace perfbench
