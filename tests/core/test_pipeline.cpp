// Integration tests of the full Figure-1 pipeline:
// concretize -> build -> schedule/run -> sanity -> FOM -> perflog.
#include "core/framework/pipeline.hpp"

#include <gtest/gtest.h>

#include <array>

#include "babelstream/testcase.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/util/strings.hpp"
#include "hpcg/testcase.hpp"
#include "hpgmg/testcase.hpp"

namespace rebench {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture()
      : systems_(builtinSystems()),
        repo_(builtinRepository()),
        pipeline_(systems_, repo_) {}

  SystemRegistry systems_;
  PackageRepository repo_;
  Pipeline pipeline_;
};

RegressionTest syntheticTest() {
  RegressionTest test;
  test.name = "SyntheticTest";
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

TEST_F(PipelineFixture, SyntheticTestPassesEndToEnd) {
  PerfLog log;
  const TestRunResult result =
      pipeline_.runOne(syntheticTest(), "archer2", &log);
  EXPECT_TRUE(result.passed) << result.failure.stage << ": "
                             << result.failure.detail;
  EXPECT_TRUE(result.sanityPassed);
  EXPECT_EQ(result.jobState, JobState::kCompleted);
  EXPECT_NEAR(result.foms.at("rate"), 123.5, 1e-9);
  EXPECT_EQ(log.size(), 1u);

  // The perflog entry is a complete provenance record (P3/P4/P5).
  const PerfLogEntry entry = PerfLogEntry::parse(log.lines()[0]);
  EXPECT_EQ(entry.system, "archer2");
  EXPECT_EQ(entry.environ, "gcc@11.2.0");
  EXPECT_FALSE(entry.specHash.empty());
  EXPECT_FALSE(entry.binaryId.empty());
  EXPECT_TRUE(entry.extras.contains("launch"));
  EXPECT_TRUE(str::startsWith(entry.extras.at("launch"), "srun"));

  // The Principle-5 artefact: a replayable batch script for the run.
  EXPECT_TRUE(str::startsWith(result.jobScript, "#!/bin/bash"));
  EXPECT_TRUE(str::contains(result.jobScript, "#SBATCH --account=ec999"));
  EXPECT_TRUE(str::contains(result.jobScript, result.launchCommand));
}

TEST_F(PipelineFixture, SanityFailureStopsPipeline) {
  RegressionTest test = syntheticTest();
  test.run = [](const RunContext&) {
    return RunOutput{"RESULT BAD\nrate 1.0\n", 1.0, false, ""};
  };
  const TestRunResult result = pipeline_.runOne(test, "archer2");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "sanity");
}

TEST_F(PipelineFixture, MissingFomIsPerformanceFailure) {
  RegressionTest test = syntheticTest();
  test.run = [](const RunContext&) {
    return RunOutput{"RESULT OK\nno numbers here\n", 1.0, false, ""};
  };
  const TestRunResult result = pipeline_.runOne(test, "archer2");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "performance");
}

TEST_F(PipelineFixture, ReferenceViolationFlagged) {
  RegressionTest test = syntheticTest();
  test.references["archer2:compute"]["rate"] = {200.0, -0.1, 0.1};
  const TestRunResult result = pipeline_.runOne(test, "archer2");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "reference");
  EXPECT_FALSE(result.fomWithinReference.at("rate"));
}

TEST_F(PipelineFixture, ReferenceWithinBoundsPasses) {
  RegressionTest test = syntheticTest();
  test.references["archer2:compute"]["rate"] = {120.0, -0.1, 0.1};
  const TestRunResult result = pipeline_.runOne(test, "archer2");
  EXPECT_TRUE(result.passed);
}

TEST_F(PipelineFixture, UnknownSpecFailsAtConcretize) {
  RegressionTest test = syntheticTest();
  test.spackSpec = "no-such-package";
  const TestRunResult result = pipeline_.runOne(test, "archer2");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "concretize");
}

TEST_F(PipelineFixture, ConcretizationTraceIsAuditable) {
  const TestRunResult result =
      pipeline_.runOne(syntheticTest(), "csd3");
  EXPECT_FALSE(result.concretizationTrace.empty());
  ASSERT_NE(result.concreteSpec, nullptr);
  EXPECT_EQ(result.concreteSpec->name, "stream");
}

TEST_F(PipelineFixture, BabelstreamOnModeledPlatform) {
  PerfLog log;
  babelstream::BabelstreamTestOptions options;
  options.model = "omp";
  options.ntimes = 10;
  const TestRunResult result = pipeline_.runOne(
      babelstream::makeBabelstreamTest(options),
      "isambard-macs:cascadelake", &log);
  EXPECT_TRUE(result.passed) << result.failure.stage << ": "
                             << result.failure.detail;
  EXPECT_GT(result.foms.at("Triad"), 0.0);
  // Triad GB/s must be below Table 1 peak for the platform.
  EXPECT_LT(result.foms.at("Triad") / 1000.0, 282.0);
  EXPECT_EQ(log.size(), 5u);  // five kernels
}

TEST_F(PipelineFixture, BabelstreamUnsupportedModelRecordsFailure) {
  PerfLog log;
  babelstream::BabelstreamTestOptions options;
  options.model = "cuda";
  options.ntimes = 5;
  const TestRunResult result = pipeline_.runOne(
      babelstream::makeBabelstreamTest(options),
      "isambard-macs:cascadelake", &log);
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "run");
  EXPECT_TRUE(str::contains(result.failure.detail, "NVIDIA GPU"));
  // Failed combinations still land in the perflog (Fig. 2's "*" cells).
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(PerfLogEntry::parse(log.lines()[0]).result, "error");
}

TEST_F(PipelineFixture, BabelstreamNativeOnLocalSystem) {
  babelstream::BabelstreamTestOptions options;
  options.model = "serial";
  options.ntimes = 3;
  options.nativeArraySize = 1 << 16;
  const TestRunResult result = pipeline_.runOne(
      babelstream::makeBabelstreamTest(options), "local");
  EXPECT_TRUE(result.passed) << result.failure.detail;
  EXPECT_GT(result.foms.at("Triad"), 0.0);
}

TEST_F(PipelineFixture, HpcgVariantNaOnRomeIsRunFailure) {
  hpcg::HpcgTestOptions options;
  options.variant = hpcg::Variant::kCsrOpt;
  options.numTasks = 8;
  const TestRunResult result =
      pipeline_.runOne(hpcg::makeHpcgTest(options), "archer2");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "run");
  EXPECT_TRUE(str::contains(result.failure.detail, "N/A"));
}

TEST_F(PipelineFixture, HpgmgAppendixGeometryRunsOnAllFourSystems) {
  PerfLog log;
  const RegressionTest test = hpgmg::makeHpgmgTest({});
  for (const char* target : {"archer2", "cosma8", "csd3", "isambard-macs"}) {
    const TestRunResult result = pipeline_.runOne(test, target, &log);
    EXPECT_TRUE(result.passed)
        << target << ": " << result.failure.stage << " "
        << result.failure.detail;
    EXPECT_GT(result.foms.at("l0"), 0.0);
    EXPECT_GT(result.foms.at("l1"), 0.0);
    EXPECT_GT(result.foms.at("l2"), 0.0);
  }
  // 4 systems x 3 FOMs.
  EXPECT_EQ(log.size(), 12u);
  const DataFrame frame =
      perflogToDataFrame(PerfLog::parseLines(log.lines()));
  EXPECT_EQ(frame.rowCount(), 12u);
}

TEST_F(PipelineFixture, RunAllSkipsNonMatchingTargets) {
  RegressionTest test = syntheticTest();
  test.validSystems = {"archer2"};
  const std::array<RegressionTest, 1> tests{test};
  const std::array<std::string, 2> targets{"archer2", "csd3"};
  const auto results = pipeline_.runAll(tests, targets);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].system, "archer2");
}

TEST_F(PipelineFixture, RepeatsProduceOneResultEach) {
  PipelineOptions options;
  options.numRepeats = 3;
  Pipeline pipeline(systems_, repo_, options);
  const std::array<RegressionTest, 1> tests{syntheticTest()};
  const std::array<std::string, 1> targets{"csd3"};
  PerfLog log;
  const auto results = pipeline.runAll(tests, targets, &log);
  EXPECT_EQ(results.size(), 3u);
  EXPECT_EQ(log.size(), 3u);
}

TEST_F(PipelineFixture, AccountMissingFailsSubmitStage) {
  PipelineOptions options;
  options.account = "";  // ARCHER2 requires -J'--account=...'
  Pipeline pipeline(systems_, repo_, options);
  const TestRunResult result = pipeline.runOne(syntheticTest(), "archer2");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "submit");
  EXPECT_TRUE(str::contains(result.failure.detail, "Invalid account"));
}

}  // namespace
}  // namespace rebench
