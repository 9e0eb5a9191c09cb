// Retry semantics (ReFrame's --max-retries) and the Principle-4
// environment-capture artefact.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/framework/pipeline.hpp"
#include "core/util/strings.hpp"

namespace rebench {
namespace {

RegressionTest flakyTest(std::shared_ptr<std::atomic<int>> calls,
                         int failuresBeforeSuccess) {
  RegressionTest test;
  test.name = "FlakyTest";
  test.spackSpec = "stream";
  test.numTasks = 1;
  test.numTasksPerNode = 1;
  test.sanityPattern = "OK";
  test.perfPatterns = {{"rate", R"(rate ([0-9.]+))", Unit::kGBperSec}};
  test.run = [calls, failuresBeforeSuccess](const RunContext&) {
    const int attempt = calls->fetch_add(1);
    if (attempt < failuresBeforeSuccess) {
      // A transient node fault: garbage output, failing sanity.
      return RunOutput{"NODE FAILURE xid 62\n", 1.0, false, ""};
    }
    return RunOutput{"OK\nrate 42.0\n", 1.0, false, ""};
  };
  return test;
}

class RetryFixture : public ::testing::Test {
 protected:
  RetryFixture() : systems_(builtinSystems()), repo_(builtinRepository()) {}
  SystemRegistry systems_;
  PackageRepository repo_;
};

TEST_F(RetryFixture, NoRetriesByDefault) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  Pipeline pipeline(systems_, repo_);
  const TestRunResult result =
      pipeline.runOne(flakyTest(calls, 1), "csd3");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "sanity");
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(calls->load(), 1);
}

TEST_F(RetryFixture, RetriesRecoverTransientFailures) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  PipelineOptions options;
  options.retry.maxRetries = 3;
  Pipeline pipeline(systems_, repo_, options);
  const TestRunResult result =
      pipeline.runOne(flakyTest(calls, 2), "csd3");
  EXPECT_TRUE(result.passed) << result.failure.detail;
  EXPECT_EQ(result.attempts, 3);  // 2 failures + 1 success
  EXPECT_NEAR(result.foms.at("rate"), 42.0, 1e-9);
}

TEST_F(RetryFixture, RetriesExhaustedStaysFailed) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  PipelineOptions options;
  options.retry.maxRetries = 2;
  Pipeline pipeline(systems_, repo_, options);
  const TestRunResult result =
      pipeline.runOne(flakyTest(calls, 10), "csd3");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(calls->load(), 3);  // initial + 2 retries
}

TEST_F(RetryFixture, ConfigurationErrorsNeverRetried) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  PipelineOptions options;
  options.retry.maxRetries = 5;
  Pipeline pipeline(systems_, repo_, options);
  RegressionTest test = flakyTest(calls, 0);
  test.spackSpec = "no-such-package";
  const TestRunResult result = pipeline.runOne(test, "csd3");
  EXPECT_FALSE(result.passed);
  EXPECT_EQ(result.failure.stage, "concretize");
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(calls->load(), 0);  // never even ran
}

TEST(EnvironmentCapture, RenderConfigIsCompleteAndShareable) {
  const SystemRegistry systems = builtinSystems();
  const std::string config =
      systems.get("archer2").environment.renderConfig();
  EXPECT_TRUE(str::contains(config, "system: archer2"));
  EXPECT_TRUE(str::contains(config, "gcc@11.2.0"));
  EXPECT_TRUE(str::contains(config, "cray-mpich@8.1.23"));
  EXPECT_TRUE(str::contains(config, "origin: cray-mpich/8.1.23"));
  EXPECT_TRUE(str::contains(config, "mpi: [cray-mpich]"));
  EXPECT_TRUE(str::contains(config, "# module: PrgEnv-gnu/8.3.3"));
}

TEST(EnvironmentCapture, EveryBuiltinSystemRenders) {
  const SystemRegistry systems = builtinSystems();
  for (const std::string& name : systems.systemNames()) {
    const std::string config =
        systems.get(name).environment.renderConfig();
    EXPECT_TRUE(str::contains(config, "system: " + name));
    EXPECT_TRUE(str::contains(config, "compilers:"));
  }
}

}  // namespace
}  // namespace rebench
