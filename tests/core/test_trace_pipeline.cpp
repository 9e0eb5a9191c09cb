// Pipeline instrumentation: span structure, metric coverage, retry
// visibility and trace determinism — the observability half of the
// reproducibility story.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>

#include "core/framework/pipeline.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/postproc/trace_report.hpp"
#include "core/util/strings.hpp"

namespace rebench {
namespace {

RegressionTest passingTest() {
  RegressionTest test;
  test.name = "TracedStream";
  test.spackSpec = "stream%gcc";
  test.numTasks = 1;
  test.numTasksPerNode = 1;
  test.sanityPattern = "Solution Validates";
  test.perfPatterns = {{"Triad", R"(Triad:\s+([0-9.]+))", Unit::kMBperSec}};
  test.run = [](const RunContext& ctx) {
    std::string out = "Triad: " +
                      std::to_string(100000.0 +
                                     1000.0 * ctx.allocation.cpusPerTask) +
                      " MB/s\nSolution Validates\n";
    return RunOutput{out, /*elapsedSeconds=*/12.0, false, ""};
  };
  return test;
}

RegressionTest flakyTest(std::shared_ptr<std::atomic<int>> calls,
                         int failuresBeforeSuccess) {
  RegressionTest test = passingTest();
  test.name = "FlakyTraced";
  test.sanityPattern = "OK";
  test.perfPatterns = {{"rate", R"(rate ([0-9.]+))", Unit::kGBperSec}};
  test.run = [calls, failuresBeforeSuccess](const RunContext&) {
    const int attempt = calls->fetch_add(1);
    if (attempt < failuresBeforeSuccess) {
      return RunOutput{"NODE FAILURE xid 62\n", 1.0, false, ""};
    }
    return RunOutput{"OK\nrate 42.0\n", 1.0, false, ""};
  };
  return test;
}

const obs::SpanRecord* findSpan(const obs::Tracer& tracer,
                                std::string_view name) {
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

std::size_t countSpans(const obs::Tracer& tracer, std::string_view name) {
  return static_cast<std::size_t>(
      std::count_if(tracer.spans().begin(), tracer.spans().end(),
                    [&](const obs::SpanRecord& s) { return s.name == name; }));
}

class TracedPipeline : public ::testing::Test {
 protected:
  TracedPipeline() : systems_(builtinSystems()), repo_(builtinRepository()) {}

  TestRunResult run(const RegressionTest& test, std::string_view target,
                    PerfLog* perflog = nullptr, int maxRetries = 0) {
    PipelineOptions options;
    options.retry.maxRetries = maxRetries;
    options.tracer = &tracer_;
    options.metrics = &metrics_;
    Pipeline pipeline(systems_, repo_, options);
    return pipeline.runOne(test, target, perflog);
  }

  SystemRegistry systems_;
  PackageRepository repo_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
};

TEST_F(TracedPipeline, EmitsOneSpanPerStageUnderTestRun) {
  const TestRunResult result = run(passingTest(), "archer2");
  ASSERT_TRUE(result.passed) << result.failure.detail;
  EXPECT_EQ(tracer_.openSpans(), 0u);

  const obs::SpanRecord* root = findSpan(tracer_, "test_run");
  const obs::SpanRecord* attempt = findSpan(tracer_, "attempt");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(attempt, nullptr);
  EXPECT_EQ(root->parent, "");
  EXPECT_EQ(attempt->parent, root->id);
  EXPECT_EQ(root->attrs.at("test"), "TracedStream");
  EXPECT_EQ(root->attrs.at("outcome"), "pass");
  EXPECT_EQ(attempt->attrs.at("attempt"), "1");
  EXPECT_EQ(attempt->attrs.at("result"), "pass");

  for (const char* stage : {"concretize", "build", "submit", "run", "sanity",
                            "performance", "telemetry"}) {
    const obs::SpanRecord* span = findSpan(tracer_, stage);
    ASSERT_NE(span, nullptr) << stage;
    EXPECT_EQ(span->parent, attempt->id) << stage;
    EXPECT_GE(span->start, attempt->start) << stage;
    EXPECT_LE(span->end, attempt->end) << stage;
  }
  // Simulated build seconds flow into the build span's duration.
  EXPECT_GT(findSpan(tracer_, "build")->duration(), 1.0);
  // Queue wait + execution flows into the run span's duration.
  EXPECT_GT(findSpan(tracer_, "run")->duration(), 1.0);
}

TEST_F(TracedPipeline, PopulatesPipelineAndSchedulerMetrics) {
  run(passingTest(), "archer2");
  EXPECT_EQ(metrics_.counter("pipeline.runs").value(), 1u);
  EXPECT_EQ(metrics_.counter("sched.submitted").value(), 1u);
  EXPECT_EQ(metrics_.counter("sched.completed").value(), 1u);
  EXPECT_GE(metrics_.counter("concretizer.decisions").value(), 1u);
  EXPECT_GE(metrics_.gauge("sched.queue_depth").max(), 1.0);
  EXPECT_EQ(metrics_
                .histogram("pipeline.stage_seconds/build",
                           obs::stageSecondsBounds())
                .count(),
            1u);
  EXPECT_EQ(metrics_
                .histogram("sched.wait_seconds", obs::stageSecondsBounds())
                .count(),
            1u);
}

TEST_F(TracedPipeline, ConcretizerDecisionsLandAsEvents) {
  run(passingTest(), "archer2");
  bool sawDecision = false;
  for (const obs::EventRecord& event : tracer_.events()) {
    if (event.name == "concretize.decision") {
      sawDecision = true;
      EXPECT_FALSE(event.attrs.at("decision").empty());
      EXPECT_EQ(event.span, findSpan(tracer_, "concretize")->id);
    }
  }
  EXPECT_TRUE(sawDecision);
  // The compatibility view still carries the same rendered lines.
  // (migrated to emit through the tracer, kept as a field)
}

TEST_F(TracedPipeline, RetriesShowAsSiblingAttemptSpansAndPerflogRows) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  PerfLog perflog;
  const TestRunResult result =
      run(flakyTest(calls, 1), "csd3", &perflog, /*maxRetries=*/2);
  ASSERT_TRUE(result.passed) << result.failure.detail;
  EXPECT_EQ(result.attempts, 2);

  ASSERT_EQ(countSpans(tracer_, "attempt"), 2u);
  const obs::SpanRecord* root = findSpan(tracer_, "test_run");
  std::vector<const obs::SpanRecord*> attempts;
  for (const obs::SpanRecord& span : tracer_.spans()) {
    if (span.name == "attempt") attempts.push_back(&span);
  }
  EXPECT_EQ(attempts[0]->parent, root->id);
  EXPECT_EQ(attempts[1]->parent, root->id);
  EXPECT_EQ(attempts[0]->attrs.at("result"), "fail");
  EXPECT_EQ(attempts[0]->attrs.at("failure_stage"), "sanity");
  EXPECT_EQ(attempts[1]->attrs.at("result"), "pass");
  EXPECT_EQ(root->attrs.at("attempts"), "2");

  // The failed attempt is perflog data too: stage, reason, attempt number.
  const auto entries = PerfLog::parseLines(perflog.lines());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].fomName, "sanity");
  EXPECT_EQ(entries[0].result, "error");
  EXPECT_EQ(entries[0].extras.at("attempt"), "1");
  EXPECT_FALSE(entries[0].extras.at("error").empty());
  EXPECT_EQ(entries[1].fomName, "rate");
  EXPECT_EQ(entries[1].result, "pass");
  EXPECT_EQ(entries[1].extras.at("attempt"), "2");
  EXPECT_EQ(metrics_.counter("pipeline.retries").value(), 1u);
}

TEST_F(TracedPipeline, SuccessfulRunKeepsOnePerflogEntryPerFom) {
  PerfLog perflog;
  run(passingTest(), "archer2", &perflog);
  const auto entries = PerfLog::parseLines(perflog.lines());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].extras.at("attempt"), "1");
  EXPECT_EQ(metrics_.counter("pipeline.perflog_lines").value(), 1u);
}

TEST_F(TracedPipeline, StageTableRendersEveryStageRow) {
  run(passingTest(), "archer2");
  const obs::TraceFile trace =
      obs::parseTraceJsonl(tracer_.toJsonl(&metrics_));
  EXPECT_TRUE(obs::lintTrace(trace).empty());
  const std::string table = renderStageTable(trace);
  for (const char* stage :
       {"concretize", "build", "run", "sanity", "performance"}) {
    EXPECT_TRUE(str::contains(table, stage)) << table;
  }
  const DataFrame frame = traceToDataFrame(trace);
  EXPECT_EQ(frame.rowCount(), trace.spans.size());
  EXPECT_TRUE(str::contains(renderTraceTree(trace), "test_run"));
  EXPECT_TRUE(
      str::contains(renderMetricsReport(trace), "pipeline.runs"));
}

TEST(TraceDeterminism, TwoIdenticalSimulatedRunsAreByteIdentical) {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  auto runTraced = [&]() {
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    PipelineOptions options;
    options.tracer = &tracer;
    options.metrics = &metrics;
    Pipeline pipeline(systems, repo, options);
    PerfLog perflog;
    pipeline.runOne(passingTest(), "archer2", &perflog);
    pipeline.runOne(passingTest(), "isambard-macs:cascadelake", &perflog);
    return tracer.toJsonl(&metrics);
  };
  const std::string first = runTraced();
  const std::string second = runTraced();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace rebench
