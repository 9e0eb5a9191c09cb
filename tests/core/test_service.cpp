// Continuous-benchmarking daemon tests (ISSUE 7): spool-dir queue
// semantics, the write-ahead service journal, run-level memoization,
// crash-resume at every journal checkpoint, watchdogs, quarantine and
// degraded mode — all in-process via an injected synthetic TestResolver.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/fault/watchdog.hpp"
#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/service/journal.hpp"
#include "core/service/queue.hpp"
#include "core/service/record.hpp"
#include "core/service/service.hpp"
#include "core/store/object_store.hpp"
#include "core/store/run_cache.hpp"
#include "core/util/error.hpp"

namespace rebench::service {
namespace {

namespace fs = std::filesystem;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

RegressionTest syntheticTest(const std::string& name = "SyntheticTest") {
  RegressionTest test;
  test.name = name;
  test.spackSpec = "stream";
  test.numTasks = 1;
  test.numTasksPerNode = 1;
  test.sanityPattern = "RESULT OK";
  test.perfPatterns = {{"rate", R"(rate\s+([0-9.]+))", Unit::kGBperSec}};
  test.run = [](const RunContext&) {
    return RunOutput{"RESULT OK\nrate 123.5 GB/s\n", 2.0, false, ""};
  };
  return test;
}

/// A cell the target cannot run (Figure 2's `*`): the launch fails for a
/// permanent, deterministic reason.
RegressionTest naTest() {
  RegressionTest test = syntheticTest("NaCell");
  test.run = [](const RunContext&) {
    RunOutput output;
    output.launchFailed = true;
    output.failureReason = "variant 'x' N/A on this target";
    return output;
  };
  return test;
}

/// Lines of `kind` in the service journal at `queueDir`.
int journalLines(const std::string& queueDir, const std::string& kind) {
  std::istringstream in(readFile(ServiceJournal::pathFor(queueDir)));
  int count = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"kind\":\"" + kind + "\"") != std::string::npos) ++count;
  }
  return count;
}

int flightRecords(const std::string& queueDir) {
  int count = 0;
  for (const auto& entry : fs::directory_iterator(queueDir)) {
    if (entry.path().filename().string().starts_with("flightrec-")) ++count;
  }
  return count;
}

/// A fixture owning scratch queue/store directories plus the registries
/// the daemon needs; serve() wires a resolver that returns `tests_` (the
/// synthetic test unless a test replaces it).
class ServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        "rebench-service-test-" + std::string(::testing::UnitTest::GetInstance()
                                                  ->current_test_info()
                                                  ->name());
    root_ = (fs::temp_directory_path() / stem).string();
    fs::remove_all(root_);
    queue_ = root_ + "/queue";
    store_ = root_ + "/store";
    systems_ = builtinSystems();
    repo_ = builtinRepository();
  }
  void TearDown() override { fs::remove_all(root_); }

  store::CampaignInvocation invocation(const std::string& benchmark = "synthetic") {
    store::CampaignInvocation inv;
    inv.mode = "run";
    inv.system = "archer2";
    inv.benchmark = benchmark;
    inv.repeats = 2;
    inv.withStore = true;
    return inv;
  }

  ServeOptions makeOptions() {
    ServeOptions options;
    options.queueDir = queue_;
    options.storeDir = store_;
    options.once = true;
    return options;
  }

  ServeReport serve(ServeOptions options) {
    Service daemon(systems_, repo_, std::move(options),
                   [tests = tests_](const store::CampaignInvocation&) {
                     return tests;
                   });
    return daemon.run();
  }

  Verdict verdictOf(const Submission& sub) {
    return Verdict::parse(readFile(verdictPath(queue_, sub.id)));
  }

  std::vector<RegressionTest> tests_{syntheticTest()};
  std::string root_;
  std::string queue_;
  std::string store_;
  SystemRegistry systems_;
  PackageRepository repo_;
};

// ---------------------------------------------------------------- queue

TEST_F(ServiceFixture, EnqueueIsIdempotentByContentHash) {
  const Submission first = enqueueSubmission(queue_, invocation());
  const Submission second = enqueueSubmission(queue_, invocation());
  EXPECT_EQ(first.id, second.id);
  EXPECT_EQ(first.path, second.path);
  const auto scanned = scanQueue(queue_);
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_TRUE(scanned[0].valid);
  EXPECT_EQ(scanned[0].id, first.id);
  EXPECT_EQ(scanned[0].invocation.benchmark, "synthetic");
  EXPECT_EQ(scanned[0].invocation.repeats, 2);
}

TEST_F(ServiceFixture, ScanFlagsTamperedSubmissions) {
  const Submission sub = enqueueSubmission(queue_, invocation());
  std::ofstream(sub.path, std::ios::app) << "tampered\n";
  const auto scanned = scanQueue(queue_);
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_FALSE(scanned[0].valid);
  EXPECT_NE(scanned[0].error.find("hash"), std::string::npos);
}

TEST_F(ServiceFixture, VerdictSerializationRoundtrips) {
  Verdict verdict;
  verdict.submission = "abc123";
  verdict.verdict = "ran:regressed";
  verdict.key = "deadbeef";
  verdict.manifestHash = "cafe1234";
  verdict.degraded = true;
  verdict.detail = "1 series regressed";
  const Verdict parsed = Verdict::parse(verdict.serialize());
  EXPECT_EQ(parsed.submission, verdict.submission);
  EXPECT_EQ(parsed.verdict, verdict.verdict);
  EXPECT_EQ(parsed.key, verdict.key);
  EXPECT_EQ(parsed.manifestHash, verdict.manifestHash);
  EXPECT_EQ(parsed.degraded, verdict.degraded);
  EXPECT_EQ(parsed.detail, verdict.detail);
}

// ------------------------------------------------------------ run cache

TEST_F(ServiceFixture, RunRecordRoundtripsAndRejectsWrongSchema) {
  store::RunRecord record;
  record.key = "k1";
  record.verdict = "ran:clean";
  record.manifestHash = "m1";
  record.perflogHash = "p1";
  record.runs = 4;
  record.regressions = 1;
  const store::RunRecord parsed = store::RunRecord::parse(record.serialize());
  EXPECT_EQ(parsed.key, "k1");
  EXPECT_EQ(parsed.verdict, "ran:clean");
  EXPECT_EQ(parsed.manifestHash, "m1");
  EXPECT_EQ(parsed.perflogHash, "p1");
  EXPECT_EQ(parsed.runs, 4);
  EXPECT_EQ(parsed.regressions, 1);
  EXPECT_THROW(store::RunRecord::parse("{\"schema\":\"bogus/9\"}"),
               rebench::Error);
}

TEST_F(ServiceFixture, RanCleanRunRecordKeepsItsGoldenBytes) {
  store::RunRecord record;
  record.key = "k1";
  record.verdict = "ran:clean";
  record.manifestHash = "m1";
  record.perflogHash = "p1";
  record.runs = 4;
  EXPECT_EQ(record.serialize(),
            "{\"schema\":\"rebench.runcache/1\",\"key\":\"k1\","
            "\"verdict\":\"ran:clean\",\"manifest\":\"m1\","
            "\"perflog\":\"p1\",\"runs\":4,\"regressions\":0}");
}

TEST_F(ServiceFixture, RunCacheDistinguishesMissHitAndStale) {
  store::ObjectStore objects(store_);
  store::RunCache cache(objects);
  EXPECT_EQ(cache.lookup("nope").outcome, store::RunCache::Outcome::kMiss);

  // A record citing a manifest that exists on disk is a hit...
  store::RunRecord record;
  record.key = "k1";
  record.verdict = "ran:clean";
  record.manifestHash = "feedface";
  fs::create_directories(objects.dir() + "/manifests");
  std::ofstream(objects.dir() + "/manifests/campaign-feedface.json") << "{}";
  cache.insert(record);
  const auto hit = cache.lookup("k1");
  ASSERT_TRUE(hit.hit());
  EXPECT_EQ(hit.record->manifestHash, "feedface");

  // ...and turns stale once the cited manifest disappears.
  fs::remove(objects.dir() + "/manifests/campaign-feedface.json");
  EXPECT_EQ(cache.lookup("k1").outcome, store::RunCache::Outcome::kStale);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stale, 1u);
}

// -------------------------------------------------------------- journal

TEST_F(ServiceFixture, ServiceJournalReplaysStateAcrossReopen) {
  fs::create_directories(queue_);
  {
    ServiceJournal journal(queue_);
    journal.recordClaim("s1", "key1");
    ExecutedRecord outcome;
    outcome.key = "key1";
    outcome.manifestHash = "m1";
    outcome.simSeconds = 0.1 + 0.2;  // exercise exact double round-trip
    outcome.aggregates.push_back(
        {"T", "archer2", "rate", "spec1", 123.456789012345, 120.0, 125.0, 2});
    journal.recordExecuted("s1", outcome);
  }
  {
    ServiceJournal journal(queue_);
    EXPECT_EQ(journal.state("s1"), ServiceJournal::State::kExecuted);
    const ExecutedRecord* outcome = journal.executed("s1");
    ASSERT_NE(outcome, nullptr);
    EXPECT_EQ(outcome->manifestHash, "m1");
    EXPECT_EQ(outcome->simSeconds, 0.1 + 0.2);  // bit-exact, not approx
    ASSERT_EQ(outcome->aggregates.size(), 1u);
    EXPECT_EQ(outcome->aggregates[0].mean, 123.456789012345);
    EXPECT_EQ(outcome->aggregates[0].specHash, "spec1");
    EXPECT_EQ(outcome->aggregates[0].ciHalfwidth, 2.0);
    VerdictRecord verdict{"ran:clean", "key1", "m1", false, ""};
    journal.recordVerdict("s1", verdict);
    journal.recordDone("s1");
  }
  ServiceJournal journal(queue_);
  EXPECT_EQ(journal.state("s1"), ServiceJournal::State::kDone);
  EXPECT_EQ(journal.crashedClaims("s1"), 0);
}

TEST_F(ServiceFixture, ServiceJournalWritesPermanentFailureOnlyWhenTrue) {
  fs::create_directories(queue_);
  {
    ServiceJournal journal(queue_);
    ExecutedRecord passed;
    passed.key = "k1";
    journal.recordExecuted("s1", passed);
  }
  // Absent means false: a passing campaign's executed line is unchanged.
  EXPECT_EQ(readFile(ServiceJournal::pathFor(queue_)).find("permanentFailure"),
            std::string::npos);
  {
    ServiceJournal journal(queue_);
    ExecutedRecord failed;
    failed.key = "k2";
    failed.failedStage = "run";
    failed.failureClass = "permanent";
    failed.permanentFailure = true;
    journal.recordExecuted("s2", failed);
  }
  ServiceJournal journal(queue_);
  EXPECT_FALSE(journal.executed("s1")->permanentFailure);
  EXPECT_TRUE(journal.executed("s2")->permanentFailure);
}

TEST_F(ServiceFixture, ServiceJournalCountsCrashedClaims) {
  fs::create_directories(queue_);
  { ServiceJournal journal(queue_); journal.recordClaim("s1", "k"); }
  { ServiceJournal journal(queue_); journal.recordClaim("s1", "k"); }
  ServiceJournal journal(queue_);
  EXPECT_EQ(journal.crashedClaims("s1"), 2);
  EXPECT_EQ(journal.state("s1"), ServiceJournal::State::kClaimed);
}

TEST_F(ServiceFixture, ServiceJournalTruncatesTornTail) {
  fs::create_directories(queue_);
  { ServiceJournal journal(queue_); journal.recordClaim("s1", "k"); }
  // Simulate a crash mid-append: a torn, unparseable final line.
  std::ofstream(ServiceJournal::pathFor(queue_), std::ios::app)
      << "{\"kind\":\"executed\",\"subm";
  ServiceJournal journal(queue_);
  EXPECT_EQ(journal.corruptLines(), 1u);
  EXPECT_EQ(journal.state("s1"), ServiceJournal::State::kClaimed);
  // The rewrite dropped the torn tail: a fresh replay sees a clean file.
  ServiceJournal again(queue_);
  EXPECT_EQ(again.corruptLines(), 0u);
}

TEST_F(ServiceFixture, FormatExactRoundtripsDoubles) {
  for (const double value : {0.1, 1.0 / 3.0, 123456.789012345, 2.5e-17}) {
    EXPECT_EQ(std::stod(formatExact(value)), value);
  }
}

// ------------------------------------------------------- serve semantics

TEST_F(ServiceFixture, ServeExecutesThenAnswersFromRunCache) {
  enqueueSubmission(queue_, invocation());
  const ServeReport first = serve(makeOptions());
  EXPECT_EQ(first.processed, 1);
  EXPECT_EQ(first.executed, 1);
  EXPECT_EQ(first.clean, 1);
  EXPECT_EQ(first.cached, 0);

  const ServeReport second = serve(makeOptions());
  EXPECT_EQ(second.processed, 1);
  EXPECT_EQ(second.executed, 0);
  EXPECT_EQ(second.cached, 1);

  // The cached pass appended nothing: history still holds one campaign.
  store::ObjectStore objects(store_);
  history::HistoryIndex index(objects);
  EXPECT_EQ(index.readAll().size(), 1u);

  const auto scanned = scanQueue(queue_);
  ASSERT_EQ(scanned.size(), 1u);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, scanned[0].id)));
  EXPECT_EQ(verdict.verdict, "cached");
  EXPECT_FALSE(verdict.degraded);
}

TEST_F(ServiceFixture, CrashResumeConvergesAtEveryCheckpoint) {
  for (const std::string checkpoint : {"claim", "executed", "verdict"}) {
    SCOPED_TRACE(checkpoint);
    const std::string controlQueue = root_ + "/cq-" + checkpoint;
    const std::string controlStore = root_ + "/cs-" + checkpoint;
    const std::string crashQueue = root_ + "/xq-" + checkpoint;
    const std::string crashStore = root_ + "/xs-" + checkpoint;
    const Submission sub = enqueueSubmission(controlQueue, invocation());
    enqueueSubmission(crashQueue, invocation());

    ServeOptions control = makeOptions();
    control.queueDir = controlQueue;
    control.storeDir = controlStore;
    const ServeReport controlReport = serve(control);
    EXPECT_EQ(controlReport.executed, 1);

    ServeOptions crash = makeOptions();
    crash.queueDir = crashQueue;
    crash.storeDir = crashStore;
    crash.crashAfter = checkpoint;
    const ServeReport crashed = serve(crash);
    EXPECT_TRUE(crashed.crashed);

    ServeOptions resume = makeOptions();
    resume.queueDir = crashQueue;
    resume.storeDir = crashStore;
    const ServeReport resumed = serve(resume);
    EXPECT_FALSE(resumed.crashed);
    // Exactly-once: only a crash before 'executed' may re-run the
    // campaign in the resume pass.
    EXPECT_EQ(resumed.executed, checkpoint == "claim" ? 1 : 0);
    EXPECT_EQ(resumed.clean, 1);

    // Verdict bytes and history bytes converge on the control's.
    EXPECT_EQ(readFile(verdictPath(crashQueue, sub.id)),
              readFile(verdictPath(controlQueue, sub.id)));
    store::ObjectStore controlObjects(controlStore);
    store::ObjectStore crashObjects(crashStore);
    const auto controlHistory =
        history::HistoryIndex(controlObjects).readAll();
    const auto crashHistory = history::HistoryIndex(crashObjects).readAll();
    ASSERT_EQ(controlHistory.size(), 1u);
    ASSERT_EQ(crashHistory.size(), 1u);
    EXPECT_EQ(crashHistory[0].mean, controlHistory[0].mean);
    EXPECT_EQ(crashHistory[0].manifestHash, controlHistory[0].manifestHash);
  }
}

TEST_F(ServiceFixture, RepeatedCrashLoopsQuarantineTheSubmission) {
  const Submission sub = enqueueSubmission(queue_, invocation());
  for (int i = 0; i < 2; ++i) {
    ServeOptions options = makeOptions();
    options.crashAfter = "claim";
    EXPECT_TRUE(serve(std::move(options)).crashed);
  }
  ServeOptions options = makeOptions();
  options.quarantineAfter = 2;
  const ServeReport report = serve(std::move(options));
  EXPECT_EQ(report.quarantined, 1);
  EXPECT_EQ(report.executed, 0);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, sub.id)));
  EXPECT_EQ(verdict.verdict, "failed:quarantined");
}

TEST_F(ServiceFixture, MalformedSubmissionGetsPermanentFailureVerdict) {
  const Submission sub = enqueueSubmission(queue_, invocation());
  std::ofstream(sub.path, std::ios::app) << "tampered\n";
  const ServeReport report = serve(makeOptions());
  EXPECT_EQ(report.malformed, 1);
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.executed, 0);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, sub.id)));
  EXPECT_EQ(verdict.verdict, "failed:permanent");
  // Its verdict explains it: no flight record.
  EXPECT_EQ(flightRecords(queue_), 0);
}

TEST_F(ServiceFixture, DrainSentinelStopsBeforeProcessing) {
  enqueueSubmission(queue_, invocation());
  requestDrain(queue_);
  const ServeReport report = serve(makeOptions());
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.processed, 0);
  EXPECT_EQ(report.queueDepth, 1);
  const std::string health = readFile(queue_ + "/health.json");
  EXPECT_NE(health.find("rebench.serve_health/1"), std::string::npos);
  EXPECT_NE(health.find("\"drained\":true"), std::string::npos);
  clearDrainRequest(queue_);
  EXPECT_EQ(serve(makeOptions()).executed, 1);
}

TEST_F(ServiceFixture, ShutdownRequestActsLikeDrain) {
  enqueueSubmission(queue_, invocation());
  Service::requestShutdown();  // cleared when run() starts
  EXPECT_EQ(serve(makeOptions()).executed, 1);
}

TEST_F(ServiceFixture, BrokenHistoryHeadDegradesButStillExecutes) {
  enqueueSubmission(queue_, invocation());
  EXPECT_EQ(serve(makeOptions()).clean, 1);
  {  // Corrupt the head segment blob: the verified read fails, so the
    // history chain is unreadable at append/gate time.
    store::ObjectStore objects(store_);
    const auto head = objects.ref(history::kHeadRef);
    ASSERT_TRUE(head.has_value());
    std::ofstream(objects.objectPath(*head), std::ios::binary) << "garbage";
  }
  const Submission fresh = enqueueSubmission(queue_, invocation("other"));
  const ServeReport report = serve(makeOptions());
  EXPECT_EQ(report.executed, 1);
  EXPECT_EQ(report.degraded, 1);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, fresh.id)));
  EXPECT_TRUE(verdict.degraded);
  EXPECT_EQ(verdict.verdict, "ran:clean");

  // Degraded outcomes are never memoized: with the corrupt segment
  // disposed of (the store deleted it on the failed read) the history
  // is healthy again, so the submission re-executes — this time with
  // full guarantees — instead of serving stale degraded state.
  const ServeReport again = serve(makeOptions());
  EXPECT_EQ(again.executed, 1);
  EXPECT_EQ(again.cached, 1);  // the first submission stays memoized
  EXPECT_EQ(again.degraded, 0);
}

TEST_F(ServiceFixture, SubmissionWatchdogClassifiesSlowCampaigns) {
  enqueueSubmission(queue_, invocation());
  ServeOptions options = makeOptions();
  options.submissionTimeout = 0.001;  // simulated seconds — trivially blown
  const ServeReport report = serve(std::move(options));
  EXPECT_EQ(report.failed, 1);
  EXPECT_GE(report.watchdogFires, 1);
  const auto scanned = scanQueue(queue_);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, scanned[0].id)));
  EXPECT_EQ(verdict.verdict, "failed:infrastructure");
  EXPECT_NE(verdict.detail.find("watchdog"), std::string::npos);
  EXPECT_EQ(flightRecords(queue_), 1);

  // Infrastructure failures are never memoized: the next pass re-runs.
  store::ObjectStore objects(store_);
  EXPECT_FALSE(objects.ref(store::RunCache::refName(verdict.key)));
  ServeOptions again = makeOptions();
  again.submissionTimeout = 0.001;
  EXPECT_EQ(serve(std::move(again)).executed, 1);
}

TEST_F(ServiceFixture, ServeTraceLintsClean) {
  enqueueSubmission(queue_, invocation());
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ServeOptions options = makeOptions();
  options.tracer = &tracer;
  options.metrics = &metrics;
  serve(std::move(options));
  serve([&] {  // second pass exercises the store.runcache hit span
    ServeOptions cached = makeOptions();
    cached.tracer = &tracer;
    cached.metrics = &metrics;
    return cached;
  }());
  const std::string bytes = tracer.toJsonl(&metrics);
  EXPECT_NE(bytes.find("serve.submission"), std::string::npos);
  EXPECT_NE(bytes.find("store.runcache"), std::string::npos);
  const std::vector<std::string> problems =
      obs::lintTrace(obs::parseTraceJsonl(bytes));
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

// ------------------------------------------- permanent-failure memo

TEST_F(ServiceFixture, PermanentFailureIsAnsweredFromRunCacheNextPass) {
  tests_ = {syntheticTest(), naTest()};
  const Submission sub = enqueueSubmission(queue_, invocation());
  const ServeReport first = serve(makeOptions());
  EXPECT_EQ(first.executed, 1);
  EXPECT_EQ(first.failed, 1);
  const Verdict failed = verdictOf(sub);
  EXPECT_EQ(failed.verdict, "failed:permanent");
  EXPECT_NE(failed.detail.find("N/A"), std::string::npos);
  EXPECT_FALSE(failed.key.empty());
  EXPECT_FALSE(failed.manifestHash.empty());
  const int claims = journalLines(queue_, "claim");
  const int executed = journalLines(queue_, "executed");

  const ServeReport second = serve(makeOptions());
  EXPECT_EQ(second.executed, 0);
  EXPECT_EQ(second.cached, 1);
  EXPECT_EQ(second.failed, 0);
  const Verdict cached = verdictOf(sub);
  EXPECT_EQ(cached.verdict, "cached");
  EXPECT_EQ(cached.detail, "first ran failed:permanent");
  EXPECT_EQ(cached.key, failed.key);
  // The failing campaign's manifest records each run's failure stage.
  EXPECT_EQ(cached.manifestHash, failed.manifestHash);
  EXPECT_FALSE(cached.degraded);
  EXPECT_EQ(journalLines(queue_, "claim"), claims);
  EXPECT_EQ(journalLines(queue_, "executed"), executed);
  EXPECT_EQ(flightRecords(queue_), 0);
}

TEST_F(ServiceFixture, OnlyAllPermanentFailuresAreMemoizable) {
  auto failing = [](const std::string& stage, FailureClass klass) {
    TestRunResult result;
    result.failure = {stage, klass, "detail"};
    return result;
  };
  TestRunResult passing;
  passing.passed = true;
  const TestRunResult permanent = failing("run", FailureClass::kPermanent);
  const TestRunResult transient = failing("sanity", FailureClass::kTransient);
  const TestRunResult watchdog =
      failing("run", FailureClass::kInfrastructure);
  TestRunResult quarantined = permanent;
  quarantined.quarantined = true;

  auto memoizable = [](std::vector<TestRunResult> results) {
    return summarizeCampaignOutcome(results, {}, "m", "p").permanentFailure;
  };
  EXPECT_TRUE(memoizable({passing, permanent}));
  EXPECT_TRUE(memoizable({permanent, permanent}));
  EXPECT_FALSE(memoizable({passing}));
  // The first failure is permanent, so the verdict is failed:permanent,
  // but a transient one rides along: not a function of the key.
  EXPECT_FALSE(memoizable({permanent, transient}));
  EXPECT_FALSE(memoizable({permanent, watchdog}));
  EXPECT_FALSE(memoizable({quarantined}));
}

TEST_F(ServiceFixture, CrashAtExecutedMemoizesTheFailureLikeAControl) {
  tests_ = {syntheticTest(), naTest()};
  const std::string controlQueue = root_ + "/cq";
  const std::string controlStore = root_ + "/cs";
  const Submission sub = enqueueSubmission(controlQueue, invocation());
  enqueueSubmission(queue_, invocation());

  ServeOptions control = makeOptions();
  control.queueDir = controlQueue;
  control.storeDir = controlStore;
  serve(control);
  ServeOptions crash = makeOptions();
  crash.crashAfter = "executed";
  EXPECT_TRUE(serve(crash).crashed);
  const ServeReport resumed = serve(makeOptions());
  EXPECT_EQ(resumed.executed, 0);
  EXPECT_EQ(resumed.failed, 1);

  EXPECT_EQ(readFile(verdictPath(queue_, sub.id)),
            readFile(verdictPath(controlQueue, sub.id)));
  const std::string ref = store::RunCache::refName(verdictOf(sub).key);
  const auto controlRecord = store::ObjectStore(controlStore).ref(ref);
  const auto resumedRecord = store::ObjectStore(store_).ref(ref);
  ASSERT_TRUE(controlRecord);
  EXPECT_EQ(resumedRecord, controlRecord);
}

TEST_F(ServiceFixture, HealthQueueDepthCountsUnansweredNamesOnly) {
  enqueueSubmission(queue_, invocation());
  EXPECT_EQ(serve(makeOptions()).clean, 1);
  enqueueSubmission(queue_, invocation("unanswered"));
  const Submission tampered = enqueueSubmission(queue_, invocation("bad"));
  std::ofstream(tampered.path, std::ios::app) << "tampered\n";
  requestDrain(queue_);
  const ServeReport report = serve(makeOptions());
  EXPECT_EQ(report.processed, 0);
  EXPECT_EQ(report.queueDepth, 2);
  const std::string health = readFile(queue_ + "/health.json");
  EXPECT_NE(health.find("\"queue_depth\":2,"), std::string::npos);
}

// ------------------------------------------------- pipeline watchdog

TEST_F(ServiceFixture, PipelineStageTimeoutIsInfrastructureFailure) {
  PipelineOptions options;
  // Deadline on the run stage only (the synthetic run takes 2 simulated
  // seconds); the build stage keeps its own budget.
  options.watchdog.stageOverrides["run"] = 1.0;
  Pipeline pipeline(systems_, repo_, options);
  const TestRunResult result = pipeline.runOne(syntheticTest(), "archer2");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "run");
  EXPECT_EQ(result.failure.klass, FailureClass::kInfrastructure);
  EXPECT_NE(result.failure.detail.find("watchdog"), std::string::npos);
}

TEST_F(ServiceFixture, StageTimeoutFlowsFromInvocationToVerdict) {
  store::CampaignInvocation inv = invocation();
  inv.stageTimeout = 1.0;
  enqueueSubmission(queue_, inv);
  const ServeReport report = serve(makeOptions());
  EXPECT_EQ(report.failed, 1);
  const auto scanned = scanQueue(queue_);
  const Verdict verdict =
      Verdict::parse(readFile(verdictPath(queue_, scanned[0].id)));
  EXPECT_EQ(verdict.verdict, "failed:infrastructure");
}

// --------------------------------------------------------- run-memo key

TEST_F(ServiceFixture, RunKeyTracksEverythingThatChangesBytes) {
  const std::vector<RegressionTest> tests{syntheticTest()};
  const std::string base = runKeyFor(invocation(), systems_, repo_, tests);
  EXPECT_EQ(runKeyFor(invocation(), systems_, repo_, tests), base);

  store::CampaignInvocation repeats = invocation();
  repeats.repeats = 7;
  EXPECT_NE(runKeyFor(repeats, systems_, repo_, tests), base);

  store::CampaignInvocation target = invocation();
  target.system = "cosma8";
  EXPECT_NE(runKeyFor(target, systems_, repo_, tests), base);

  // A different concretized DAG (new spec) drifts the key even when the
  // invocation bytes are identical.
  std::vector<RegressionTest> otherSpec{syntheticTest()};
  otherSpec[0].spackSpec = "hpgmg";
  EXPECT_NE(runKeyFor(invocation(), systems_, repo_, otherSpec), base);
}

}  // namespace
}  // namespace rebench::service
