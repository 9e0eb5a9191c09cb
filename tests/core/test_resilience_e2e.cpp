// End-to-end resilience: scheduler-level fault execution (node failures,
// preemption, bounds checking), fault-injected pipeline campaigns with
// retries and backoff, circuit-breaker quarantine, resumable suites, and
// byte-level determinism of fault-injected runs.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/framework/pipeline.hpp"
#include "core/framework/suite.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/sched/scheduler.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {
namespace {

JobRequest simpleJob(std::string name, double runtime) {
  JobRequest req;
  req.name = std::move(name);
  req.numTasks = 1;
  req.payload = [runtime](const Allocation&) {
    return JobOutcome{true, runtime, "ok\n"};
  };
  return req;
}

TEST(SchedulerFaults, NodeFailureKillsJobAndDrainsNode) {
  SchedulerSim sim({.numNodes = 2, .coresPerNode = 4});
  JobRequest req = simpleJob("victim", 10.0);
  req.fault = InjectedJobFault{InjectedJobFault::Kind::kNodeFailure, 0.5};
  const JobId id = sim.submit(std::move(req));
  sim.drain();  // must terminate
  const JobInfo& job = sim.query(id);
  EXPECT_EQ(job.state, JobState::kNodeFail);
  EXPECT_FALSE(job.outcome.success);
  // The fault struck mid-run, not at the end.
  EXPECT_LT(job.endTime - job.startTime, 10.0);
  EXPECT_EQ(sim.downNodes(), 1);
  // The cluster keeps scheduling around the drained node.
  const JobId next = sim.submit(simpleJob("survivor", 1.0));
  sim.drain();
  EXPECT_EQ(sim.query(next).state, JobState::kCompleted);
}

TEST(SchedulerFaults, PreemptionRequeuesAndReruns) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  JobRequest req = simpleJob("preempted", 10.0);
  req.fault = InjectedJobFault{InjectedJobFault::Kind::kPreemption, 0.5};
  const JobId id = sim.submit(std::move(req));
  sim.drain();
  const JobInfo& job = sim.query(id);
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_EQ(job.requeues, 1);
  // First execution ran to the strike point, the rerun from scratch:
  // total elapsed exceeds one clean execution.
  EXPECT_GT(job.endTime - job.submitTime, 10.0);
}

TEST(SchedulerFaults, AllNodesDownStillTerminates) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  JobRequest req = simpleJob("killer", 10.0);
  req.fault = InjectedJobFault{InjectedJobFault::Kind::kNodeFailure, 0.5};
  sim.submit(std::move(req));
  const JobId second = sim.submit(simpleJob("starved", 1.0));
  sim.drain();  // capacity is gone; drain must still return
  EXPECT_EQ(sim.downNodes(), 1);
  EXPECT_NE(sim.query(second).state, JobState::kRunning);
}

TEST(SchedulerBounds, QueryAndCancelRejectInvalidIds) {
  SchedulerSim sim({.numNodes = 1, .coresPerNode = 4});
  EXPECT_THROW(sim.query(0), SchedulerError);
  EXPECT_THROW(sim.query(1), SchedulerError);  // nothing submitted yet
  EXPECT_THROW(sim.cancel(0), SchedulerError);
  EXPECT_THROW(sim.cancel(42), SchedulerError);
  const JobId id = sim.submit(simpleJob("real", 1.0));
  EXPECT_NO_THROW(sim.query(id));
  EXPECT_THROW(sim.query(id + 1), SchedulerError);
}

RegressionTest streamTest() {
  RegressionTest test;
  test.name = "ResilienceStream";
  test.spackSpec = "stream%gcc";
  test.numTasks = 1;
  test.numTasksPerNode = 1;
  test.sanityPattern = "Solution Validates";
  test.perfPatterns = {{"Triad", R"(Triad:\s+([0-9.]+))", Unit::kMBperSec}};
  test.run = [](const RunContext&) {
    return RunOutput{"Triad: 100000.0 MB/s\nSolution Validates\n", 12.0,
                     false, ""};
  };
  return test;
}

class ResilienceFixture : public ::testing::Test {
 protected:
  ResilienceFixture()
      : systems_(builtinSystems()), repo_(builtinRepository()) {}
  SystemRegistry systems_;
  PackageRepository repo_;
};

TEST_F(ResilienceFixture, InjectedCrashesAreRetriedWithBackoffSpans) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  PipelineOptions options;
  options.faults.seed = 42;
  options.faults.jobCrashProb = 1.0;  // every attempt crashes
  options.retry.maxRetries = 2;
  options.retry.seed = options.faults.seed;
  options.tracer = &tracer;
  options.metrics = &metrics;
  Pipeline pipeline(systems_, repo_, options);
  const TestRunResult result = pipeline.runOne(streamTest(), "archer2");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.attempts, 3);  // 1 + 2 retries, all crashed
  EXPECT_EQ(result.failure.stage, "run");
  EXPECT_EQ(result.failure.klass, FailureClass::kTransient);
  EXPECT_EQ(result.failure.detail, "FAILED");

  // Backoff consumed simulated time and is visible as spans with the
  // attributes trace_lint requires.
  std::size_t backoffs = 0;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name != "backoff") continue;
    ++backoffs;
    EXPECT_GT(span.duration(), 0.0);
    EXPECT_FALSE(span.attrs.at("attempt").empty());
    EXPECT_FALSE(span.attrs.at("seconds").empty());
    EXPECT_EQ(span.attrs.at("stage"), "run");
  }
  EXPECT_EQ(backoffs, 2u);
  EXPECT_EQ(metrics.counter("pipeline.retries").value(), 2u);
  EXPECT_EQ(metrics.counter("fault.injected/job_crash").value(), 3u);

  // fault.inject events carry their contract attributes and the whole
  // trace passes the lint.
  std::size_t injectEvents = 0;
  for (const obs::EventRecord& event : tracer.events()) {
    if (event.name != "fault.inject") continue;
    ++injectEvents;
    EXPECT_EQ(event.attrs.at("kind"), "job_crash");
    EXPECT_FALSE(event.attrs.at("key").empty());
  }
  EXPECT_EQ(injectEvents, 3u);
  const obs::TraceFile trace = obs::parseTraceJsonl(tracer.toJsonl(&metrics));
  EXPECT_TRUE(obs::lintTrace(trace).empty());
}

TEST_F(ResilienceFixture, SameSeedProducesIdenticalPerflogAndTraceBytes) {
  auto campaign = [&]() {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    PipelineOptions options;
    options.faults.seed = 1234;
    options.faults.jobCrashProb = 0.3;
    options.faults.buildFlakeProb = 0.2;
    options.faults.stdoutCorruptProb = 0.2;
    options.faults.telemetryDropProb = 0.2;
    options.retry.maxRetries = 2;
    options.retry.seed = options.faults.seed;
    options.numRepeats = 3;
    options.tracer = &tracer;
    options.metrics = &metrics;
    Pipeline pipeline(systems_, repo_, options);
    PerfLog perflog;
    const std::vector<RegressionTest> tests{streamTest()};
    const std::vector<std::string> targets{"archer2", "csd3"};
    pipeline.runAll(tests, targets, &perflog);
    std::string joined;
    for (const std::string& line : perflog.lines()) joined += line + "\n";
    return std::pair{joined, tracer.toJsonl(&metrics)};
  };
  const auto [perflog1, trace1] = campaign();
  const auto [perflog2, trace2] = campaign();
  EXPECT_FALSE(perflog1.empty());
  EXPECT_EQ(perflog1, perflog2);
  EXPECT_EQ(trace1, trace2);
}

TEST_F(ResilienceFixture, QuarantineOpensAfterThresholdAndIsReported) {
  obs::Tracer tracer;
  PipelineOptions options;
  options.faults.seed = 5;
  options.faults.nodeFailProb = 1.0;  // every run is an infrastructure loss
  options.breaker.pairThreshold = 2;
  options.numRepeats = 5;
  options.tracer = &tracer;
  Pipeline pipeline(systems_, repo_, options);
  const std::vector<RegressionTest> tests{streamTest()};
  const std::vector<std::string> targets{"archer2"};
  CampaignReport report;
  const auto results =
      pipeline.runAll(tests, targets, nullptr, nullptr, &report);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(report.quarantined, 3u);
  ASSERT_EQ(report.quarantinedKeys.size(), 1u);
  EXPECT_EQ(report.quarantinedKeys[0], "ResilienceStream@archer2:compute");
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(results[i].quarantined);
    EXPECT_EQ(results[i].failure.klass, FailureClass::kInfrastructure);
    EXPECT_EQ(results[i].failure.detail, "NODE_FAIL");
  }
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_TRUE(results[i].quarantined);
    EXPECT_EQ(results[i].failure.stage, "quarantine");
    EXPECT_EQ(results[i].attempts, 0);
  }
  // The quarantine decisions are trace events with the required key attr.
  std::size_t quarantineEvents = 0;
  for (const obs::EventRecord& event : tracer.events()) {
    if (event.name != "fault.quarantine") continue;
    ++quarantineEvents;
    EXPECT_EQ(event.attrs.at("key"), "ResilienceStream@archer2:compute");
  }
  EXPECT_EQ(quarantineEvents, 3u);

  // Suite-level rendering surfaces the quarantine instead of cascading
  // failures, while keeping the "N/M passed" first line.
  const std::string summary =
      renderCampaignSummary(summarizeCampaign(results), &report);
  EXPECT_TRUE(str::startsWith(summary, "0/5 passed\n"));
  EXPECT_TRUE(str::contains(summary, "quarantined: 3"));
  EXPECT_TRUE(str::contains(summary, "ResilienceStream@archer2:compute"));
}

TEST_F(ResilienceFixture, ResumeSkipsEverythingAlreadyJournaled) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "resume_e2e").string();
  std::filesystem::remove_all(dir);
  PipelineOptions options;
  options.numRepeats = 3;
  const std::vector<RegressionTest> tests{streamTest()};
  const std::vector<std::string> targets{"archer2", "csd3"};
  {
    Pipeline pipeline(systems_, repo_, options);
    RunJournal journal(dir);
    CampaignReport report;
    const auto results =
        pipeline.runAll(tests, targets, nullptr, &journal, &report);
    EXPECT_EQ(results.size(), 6u);
    EXPECT_EQ(report.executed, 6u);
    EXPECT_EQ(report.skippedJournaled, 0u);
    EXPECT_EQ(journal.size(), 6u);
  }
  {
    // The rerun finds everything journaled and executes nothing.
    Pipeline pipeline(systems_, repo_, options);
    RunJournal journal(dir);
    CampaignReport report;
    const auto results =
        pipeline.runAll(tests, targets, nullptr, &journal, &report);
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(report.executed, 0u);
    EXPECT_EQ(report.skippedJournaled, 6u);
    const std::string summary =
        renderCampaignSummary(summarizeCampaign(results), &report);
    EXPECT_TRUE(str::contains(summary, "6 tuple(s) already journaled"));
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceFixture, PartialCampaignResumesWhereItStopped) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "resume_partial")
          .string();
  std::filesystem::remove_all(dir);
  PipelineOptions options;
  options.numRepeats = 4;
  const std::vector<RegressionTest> tests{streamTest()};
  const std::vector<std::string> targets{"archer2"};
  {
    // Simulate a campaign killed after two repeats: journal them by hand.
    RunJournal journal(dir);
    journal.record("ResilienceStream", "archer2", 0, "pass", "", 1);
    journal.record("ResilienceStream", "archer2", 1, "pass", "", 1);
  }
  Pipeline pipeline(systems_, repo_, options);
  RunJournal journal(dir);
  CampaignReport report;
  const auto results =
      pipeline.runAll(tests, targets, nullptr, &journal, &report);
  EXPECT_EQ(results.size(), 2u);  // only repeats 2 and 3 ran
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(report.skippedJournaled, 2u);
  EXPECT_EQ(journal.size(), 4u);  // now complete
  std::filesystem::remove_all(dir);
}

TEST_F(ResilienceFixture, FaultyCampaignCompletesWithoutCrashing) {
  // A chaos-heavy suite run: every fault type active at once.  The
  // campaign must terminate and classify everything it could not run.
  PipelineOptions options;
  options.faults.seed = 2026;
  options.faults.jobCrashProb = 0.2;
  options.faults.nodeFailProb = 0.1;
  options.faults.preemptProb = 0.1;
  options.faults.buildFlakeProb = 0.2;
  options.faults.stdoutCorruptProb = 0.2;
  options.faults.telemetryDropProb = 0.2;
  options.retry.maxRetries = 1;
  options.retry.seed = options.faults.seed;
  options.numRepeats = 6;
  Pipeline pipeline(systems_, repo_, options);
  const std::vector<RegressionTest> tests{streamTest()};
  const std::vector<std::string> targets{"archer2", "csd3"};
  CampaignReport report;
  const auto results =
      pipeline.runAll(tests, targets, nullptr, nullptr, &report);
  EXPECT_EQ(results.size(), 12u);
  for (const TestRunResult& result : results) {
    if (result.passed || result.quarantined) continue;
    EXPECT_FALSE(result.failure.stage.empty());
    EXPECT_FALSE(result.failure.detail.empty());
  }
}

}  // namespace
}  // namespace rebench
