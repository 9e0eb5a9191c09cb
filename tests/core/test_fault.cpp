// Unit tests for the rebench::fault subsystem: fault configuration and
// injector determinism, the failure taxonomy, retry backoff, the
// quarantine circuit breaker, the resumable run journal, the torn-tail
// contract every JSONL log shares, and the lenient perflog reader that
// survives corrupted campaign logs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

#include "core/fault/failure.hpp"
#include "core/fault/fault.hpp"
#include "core/fault/journal.hpp"
#include "core/fault/quarantine.hpp"
#include "core/fault/retry.hpp"
#include "core/fault/watchdog.hpp"
#include "core/framework/perflog.hpp"
#include "core/service/journal.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {
namespace {

TEST(FaultConfig, ParsesFullSpec) {
  const FaultConfig config = FaultConfig::parse(
      "seed=42, crash=0.2, node=0.1, preempt=0.1, build=0.25, corrupt=0.05, "
      "teldrop=0.3");
  EXPECT_EQ(config.seed, 42u);
  EXPECT_DOUBLE_EQ(config.jobCrashProb, 0.2);
  EXPECT_DOUBLE_EQ(config.nodeFailProb, 0.1);
  EXPECT_DOUBLE_EQ(config.preemptProb, 0.1);
  EXPECT_DOUBLE_EQ(config.buildFlakeProb, 0.25);
  EXPECT_DOUBLE_EQ(config.stdoutCorruptProb, 0.05);
  EXPECT_DOUBLE_EQ(config.telemetryDropProb, 0.3);
  EXPECT_TRUE(config.enabled());
}

TEST(FaultConfig, DefaultIsDisabled) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  EXPECT_FALSE(FaultConfig::parse("seed=7").enabled());
}

TEST(FaultConfig, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultConfig::parse("bogus=0.1"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash=1.5"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash=-0.1"), ParseError);
  EXPECT_THROW(FaultConfig::parse("crash=abc"), ParseError);
  EXPECT_THROW(FaultConfig::parse("seed=xyz"), ParseError);
  // Job-level fault probabilities partition one draw; they cannot sum > 1.
  EXPECT_THROW(FaultConfig::parse("crash=0.5,node=0.4,preempt=0.2"),
               ParseError);
}

TEST(FaultConfig, LoadsFromFileWithComments) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "faults.conf").string();
  {
    std::ofstream out(path);
    out << "# campaign chaos profile\n"
        << "seed=99\n"
        << "crash=0.2  # transient crashes\n"
        << "node=0.1\n";
  }
  const FaultConfig config = loadFaultConfig(path);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_DOUBLE_EQ(config.jobCrashProb, 0.2);
  EXPECT_DOUBLE_EQ(config.nodeFailProb, 0.1);
  std::filesystem::remove(path);
  // A non-file argument parses as an inline spec.
  EXPECT_DOUBLE_EQ(loadFaultConfig("crash=0.5").jobCrashProb, 0.5);
}

TEST(FaultInjector, DecisionsAreDeterministicPerKey) {
  FaultConfig config;
  config.seed = 42;
  config.jobCrashProb = 0.5;
  config.buildFlakeProb = 0.5;
  const FaultInjector a(config);
  const FaultInjector b(config);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "Test|sys:part|0|" + std::to_string(i);
    EXPECT_EQ(a.buildFlake(key), b.buildFlake(key)) << key;
    EXPECT_EQ(a.jobFault(key).kind, b.jobFault(key).kind) << key;
    EXPECT_DOUBLE_EQ(a.jobFault(key).atFraction, b.jobFault(key).atFraction);
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultConfig c1;
  c1.seed = 1;
  c1.jobCrashProb = 0.5;
  FaultConfig c2 = c1;
  c2.seed = 2;
  const FaultInjector a(c1);
  const FaultInjector b(c2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string key = std::string("k").append(std::to_string(i));
    if (a.jobFault(key).kind != b.jobFault(key).kind) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, ProbabilitiesRoughlyRespected) {
  FaultConfig config;
  config.seed = 7;
  config.nodeFailProb = 0.2;
  const FaultInjector injector(config);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    if (injector.jobFault("key" + std::to_string(i)).kind ==
        JobFaultDecision::Kind::kNodeFailure) {
      ++fired;
    }
  }
  EXPECT_GT(fired, 120);
  EXPECT_LT(fired, 280);
}

TEST(FaultInjector, StrikeFractionStaysInsideTheRun) {
  FaultConfig config;
  config.seed = 3;
  config.nodeFailProb = 1.0;
  const FaultInjector injector(config);
  for (int i = 0; i < 100; ++i) {
    const JobFaultDecision decision =
        injector.jobFault(std::string("k").append(std::to_string(i)));
    ASSERT_EQ(decision.kind, JobFaultDecision::Kind::kNodeFailure);
    EXPECT_GT(decision.atFraction, 0.0);
    EXPECT_LT(decision.atFraction, 1.0);
  }
}

TEST(FaultInjector, CorruptTextIsDeterministicAndMarked) {
  FaultConfig config;
  config.seed = 11;
  config.stdoutCorruptProb = 1.0;
  const FaultInjector injector(config);
  const std::string text = "line one\nline two\nline three\n";
  const std::string c1 = injector.corruptText(text, "k");
  const std::string c2 = injector.corruptText(text, "k");
  EXPECT_EQ(c1, c2);
  EXPECT_TRUE(str::contains(c1, "CORRUPTED OUTPUT"));
  EXPECT_NE(injector.corruptText(text, "other"), c1);
}

TEST(FailureTaxonomy, ClassifiesPerStage) {
  EXPECT_EQ(classifyFailure("concretize", "no such package"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("submit", "Invalid account"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("build", "injected transient build failure"),
            FailureClass::kTransient);
  EXPECT_EQ(classifyFailure("build", "compile error"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("run", "NODE_FAIL"),
            FailureClass::kInfrastructure);
  EXPECT_EQ(classifyFailure("run", "TIMEOUT"),
            FailureClass::kInfrastructure);
  EXPECT_EQ(classifyFailure("run", "FAILED"), FailureClass::kTransient);
  EXPECT_EQ(classifyFailure("run", "model 'cuda' not supported"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("sanity", "pattern not found"),
            FailureClass::kTransient);
  EXPECT_EQ(classifyFailure("performance", "FOM not found"),
            FailureClass::kTransient);
  EXPECT_EQ(classifyFailure("reference", "outside bounds"),
            FailureClass::kPermanent);
  EXPECT_EQ(classifyFailure("quarantine", "circuit open"),
            FailureClass::kInfrastructure);
}

TEST(FailureTaxonomy, Names) {
  EXPECT_EQ(failureClassName(FailureClass::kTransient), "transient");
  EXPECT_EQ(failureClassName(FailureClass::kPermanent), "permanent");
  EXPECT_EQ(failureClassName(FailureClass::kInfrastructure),
            "infrastructure");
}

TEST(RetryPolicy, PerStageBudgetsOverrideTheDefault) {
  RetryPolicy policy;
  policy.maxRetries = 2;
  policy.stageBudgets["run"] = 5;
  policy.stageBudgets["sanity"] = 0;
  EXPECT_EQ(policy.budgetFor("run"), 5);
  EXPECT_EQ(policy.budgetFor("sanity"), 0);
  EXPECT_EQ(policy.budgetFor("build"), 2);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndClamps) {
  RetryPolicy policy;
  policy.backoffBase = 1.0;
  policy.backoffMultiplier = 2.0;
  policy.backoffMax = 8.0;
  policy.jitterFrac = 0.0;
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 1), 1.0);
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 2), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 3), 4.0);
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 4), 8.0);
  EXPECT_DOUBLE_EQ(policy.backoffSeconds("k", 10), 8.0);  // clamped
}

TEST(RetryPolicy, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.backoffBase = 10.0;
  policy.jitterFrac = 0.1;
  policy.seed = 42;
  const double first = policy.backoffSeconds("key", 1);
  EXPECT_DOUBLE_EQ(first, policy.backoffSeconds("key", 1));
  EXPECT_GE(first, 9.0);
  EXPECT_LE(first, 11.0);
  // Distinct keys and retry indices jitter independently.
  EXPECT_NE(first, policy.backoffSeconds("other", 1));
  EXPECT_NE(policy.backoffSeconds("key", 2),
            2.0 * policy.backoffSeconds("key", 1));
}

TEST(CircuitBreaker, OpensAtThresholdAndResetsOnSuccess) {
  CircuitBreaker breaker(3);
  EXPECT_TRUE(breaker.allows("a"));
  EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_TRUE(breaker.allows("a"));
  // A success wipes the streak.
  breaker.recordSuccess("a");
  EXPECT_EQ(breaker.consecutiveFailures("a"), 0);
  EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_TRUE(breaker.recordFailure("a"));  // third in a row opens it
  EXPECT_FALSE(breaker.allows("a"));
  EXPECT_TRUE(breaker.allows("b"));  // independent keys
  EXPECT_EQ(breaker.openKeys(), std::vector<std::string>{"a"});
}

TEST(CircuitBreaker, NonPositiveThresholdDisables) {
  CircuitBreaker breaker(0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(breaker.recordFailure("a"));
  EXPECT_TRUE(breaker.allows("a"));
}

TEST(RunJournal, RecordsAndReloads) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "journal_rt").string();
  std::filesystem::remove_all(dir);
  {
    RunJournal journal(dir);
    EXPECT_EQ(journal.size(), 0u);
    EXPECT_FALSE(journal.contains("T", "sys", 0));
    journal.record("T", "sys", 0, "pass", "", 1);
    journal.record("T", "sys", 1, "fail", "sanity", 3);
    EXPECT_TRUE(journal.contains("T", "sys", 0));
    EXPECT_TRUE(journal.contains("T", "sys", 1));
    EXPECT_FALSE(journal.contains("T", "sys", 2));
  }
  // A fresh instance loads the same tuples back.
  RunJournal reloaded(dir);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.contains("T", "sys", 0));
  EXPECT_TRUE(reloaded.contains("T", "sys", 1));
  EXPECT_FALSE(reloaded.contains("Other", "sys", 0));
  EXPECT_EQ(reloaded.corruptLines(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(RunJournal, ToleratesTruncatedTailLine) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "journal_trunc")
          .string();
  std::filesystem::remove_all(dir);
  {
    RunJournal journal(dir);
    journal.record("T", "sys", 0, "pass", "", 1);
  }
  {
    // Simulate the kill mid-append that --resume exists for.
    std::ofstream out(RunJournal::pathFor(dir), std::ios::app);
    out << "{\"kind\":\"run\",\"test\":\"T\",\"ta";
  }
  RunJournal journal(dir);
  EXPECT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal.corruptLines(), 1u);
  EXPECT_TRUE(journal.contains("T", "sys", 0));
  std::filesystem::remove_all(dir);
}

TEST(RunJournal, TruncatesCorruptTailOnDisk) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "journal_rewrite")
          .string();
  std::filesystem::remove_all(dir);
  {
    RunJournal journal(dir);
    journal.record("T", "sys", 0, "pass", "", 1);
  }
  {
    std::ofstream out(RunJournal::pathFor(dir), std::ios::app);
    out << "{\"kind\":\"run\",\"test\":\"T\",\"ta";
  }
  // Opening truncates the torn tail away on disk (tmp + atomic rename),
  // so the next crash cannot stack corruption on top of corruption: a
  // second open sees a fully intact file.
  {
    RunJournal journal(dir);
    EXPECT_EQ(journal.corruptLines(), 1u);
  }
  RunJournal clean(dir);
  EXPECT_EQ(clean.corruptLines(), 0u);
  EXPECT_EQ(clean.size(), 1u);
  EXPECT_TRUE(clean.contains("T", "sys", 0));
  std::filesystem::remove_all(dir);
}

TEST(Watchdog, LimitResolutionAndFiring) {
  WatchdogPolicy policy;
  EXPECT_FALSE(policy.enabled());
  EXPECT_FALSE(checkStageDeadline(policy, "run", 1e9).has_value());

  policy.stageTimeoutSeconds = 10.0;
  policy.stageOverrides["build"] = 2.0;
  EXPECT_TRUE(policy.enabled());
  EXPECT_EQ(policy.limitFor("run"), 10.0);
  EXPECT_EQ(policy.limitFor("build"), 2.0);

  // Finishing exactly on the deadline is within budget.
  EXPECT_FALSE(checkStageDeadline(policy, "run", 10.0).has_value());
  const auto fired = checkStageDeadline(policy, "build", 2.5);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->stage, "build");
  EXPECT_EQ(fired->limitSeconds, 2.0);
  EXPECT_EQ(fired->elapsedSeconds, 2.5);
}

TEST(Watchdog, FireClassifiesAsInfrastructure) {
  WatchdogPolicy policy;
  policy.stageTimeoutSeconds = 1.0;
  const auto fired = checkStageDeadline(policy, "run", 3.0);
  ASSERT_TRUE(fired.has_value());
  const FailureInfo failure = fired->failure();
  EXPECT_EQ(failure.klass, FailureClass::kInfrastructure);
  EXPECT_EQ(failureClassName(failure.klass), "infrastructure");
  EXPECT_NE(failure.detail.find("watchdog"), std::string::npos);
}

TEST(Watchdog, StatefulWrapperCountsFires) {
  WatchdogPolicy policy;
  policy.stageTimeoutSeconds = 1.0;
  StageWatchdog watchdog(policy);
  EXPECT_FALSE(watchdog.check("run", 0.5).has_value());
  EXPECT_TRUE(watchdog.check("run", 1.5).has_value());
  EXPECT_TRUE(watchdog.check("build", 2.0).has_value());
  EXPECT_EQ(watchdog.fires(), 2u);
}

TEST(PerfLogLenient, SkipsAndCountsCorruptLines) {
  PerfLogEntry good;
  good.testName = "T";
  good.fomName = "Triad";
  good.value = 1.5;
  good.result = "pass";
  const std::vector<std::string> lines = {
      good.serialize(),
      "#### CORRUPTED OUTPUT ####",
      "system=x|value=not_a_number",  // truncated mid-value
      good.serialize(),
  };
  EXPECT_THROW(PerfLog::parseLines(lines), ParseError);
  const PerfLog::LenientParse parsed = PerfLog::parseLinesLenient(lines);
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.corruptLines, 2u);
  EXPECT_EQ(parsed.entries[0].testName, "T");
}

// The run journal, the service journal and the store index all open
// through openJsonLog, so they share one torn-tail contract: the partial
// line is dropped, the file is rewritten to its intact lines ending in a
// newline, the next append replays, and a meta line naming another
// schema is refused.
struct JsonLogCase {
  std::string name;
  std::function<std::string(const std::string& dir)> path;
  /// Opens the log in `dir` and appends record `i`.
  std::function<void(const std::string& dir, int i)> append;
  /// Opens the log in `dir` and reports whether record `i` replayed.
  std::function<bool(const std::string& dir, int i)> replays;
};

void PrintTo(const JsonLogCase& log, std::ostream* out) { *out << log.name; }

class JsonLogTornTail : public ::testing::TestWithParam<JsonLogCase> {
 protected:
  void SetUp() override {
    // Keyed by test and parameter: ctest runs the cases of one log
    // concurrently, and a directory they shared would let one case
    // delete another's files.
    std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(test.begin(), test.end(), '/', '_');
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("jsonlog_" + test + "_" + GetParam().name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(JsonLogTornTail, DropsTailRewritesAndReplaysNextAppend) {
  const JsonLogCase& log = GetParam();
  log.append(dir_, 0);
  const std::optional<std::string> intact = readWholeFile(log.path(dir_));
  ASSERT_TRUE(intact.has_value());
  // A crash mid-append: a partial record with no newline.
  std::ofstream(log.path(dir_), std::ios::app) << "{\"kind\":\"ref\",\"na";
  EXPECT_TRUE(log.replays(dir_, 0));
  EXPECT_EQ(readWholeFile(log.path(dir_)), intact);
  log.append(dir_, 1);
  EXPECT_TRUE(log.replays(dir_, 0));
  EXPECT_TRUE(log.replays(dir_, 1));
}

TEST_P(JsonLogTornTail, CompleteLastLineWithoutNewlineKeepsNextAppend) {
  const JsonLogCase& log = GetParam();
  log.append(dir_, 0);
  // A crash can also cut a record just before its newline: the line
  // parses, but an append glued onto it would not.
  std::ofstream(log.path(dir_), std::ios::app) << "{\"kind\":\"note\"}";
  EXPECT_TRUE(log.replays(dir_, 0));
  log.append(dir_, 1);
  EXPECT_TRUE(log.replays(dir_, 0));
  EXPECT_TRUE(log.replays(dir_, 1));
}

TEST_P(JsonLogTornTail, ForeignSchemaThrows) {
  const JsonLogCase& log = GetParam();
  std::filesystem::create_directories(dir_);
  std::ofstream(log.path(dir_))
      << "{\"kind\":\"meta\",\"schema\":\"rebench.other/1\"}\n";
  EXPECT_THROW(log.replays(dir_, 0), Error);
}

INSTANTIATE_TEST_SUITE_P(
    AllLogs, JsonLogTornTail,
    ::testing::Values(
        JsonLogCase{"run_journal", &RunJournal::pathFor,
                    [](const std::string& dir, int i) {
                      RunJournal(dir).record("T", "sys", i, "pass", "", 1);
                    },
                    [](const std::string& dir, int i) {
                      return RunJournal(dir).contains("T", "sys", i);
                    }},
        JsonLogCase{"service_journal", &service::ServiceJournal::pathFor,
                    [](const std::string& dir, int i) {
                      service::ServiceJournal(dir).recordDone(
                          "s" + std::to_string(i));
                    },
                    [](const std::string& dir, int i) {
                      return service::ServiceJournal(dir).state(
                                 "s" + std::to_string(i)) ==
                             service::ServiceJournal::State::kDone;
                    }},
        JsonLogCase{"store_index",
                    [](const std::string& dir) {
                      return (std::filesystem::path(dir) / "index.jsonl")
                          .string();
                    },
                    [](const std::string& dir, int i) {
                      store::ObjectStore store(dir);
                      store.setRef("r" + std::to_string(i),
                                   store.put("blob " + std::to_string(i)));
                    },
                    [](const std::string& dir, int i) {
                      return store::ObjectStore(dir).ref(
                                 "r" + std::to_string(i)) ==
                             store::ObjectStore::hashBytes(
                                 "blob " + std::to_string(i));
                    }}),
    [](const ::testing::TestParamInfo<JsonLogCase>& testInfo) {
      return testInfo.param.name;
    });

}  // namespace
}  // namespace rebench
