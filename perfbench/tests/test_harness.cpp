// Tests of the benchmark's own harness: the percentile rule, seeded
// generators, digests and the result format.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <sstream>

#include "core/obs/json.hpp"
#include "core/store/manifest.hpp"
#include "generators.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({4.0}, 90.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0, 4.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(ramp(11), 90.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(11), 95.0), 10.5);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
}

TEST(Percentile, CountsSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(samplesBeyond(99, 90.0), 9u);
  EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(samplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(samplesBeyond(9999, 99.9), 9u);
  EXPECT_EQ(samplesBeyond(5, 100.0), 0u);
}

TEST(Percentile, TailIsHighestWithTenSamplesBeyond) {
  EXPECT_FALSE(tailPercentile(ramp(99)).has_value());
  const auto p90 = tailPercentile(ramp(100));
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->p, 90.0);
  EXPECT_EQ(p90->beyond, 10u);
  EXPECT_DOUBLE_EQ(p90->value, percentile(ramp(100), 90.0));
  const auto p99 = tailPercentile(ramp(1999));
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->p, 99.0);
  EXPECT_EQ(p99->beyond, 19u);
  const auto p999 = tailPercentile(ramp(10000));
  ASSERT_TRUE(p999.has_value());
  EXPECT_EQ(p999->p, 99.9);
  EXPECT_EQ(p999->beyond, 10u);
}

TEST(Digest, IsSixtyFourBitFnv1a) {
  EXPECT_EQ(Digest().hex(), "cbf29ce484222325");
  EXPECT_EQ(Digest().update("a").hex(), "af63dc4c8601ec8c");
  EXPECT_EQ(Digest().update("foobar").hex(), "85944171f73967e8");
  EXPECT_EQ(Digest().update("foo").update("bar").hex(),
            Digest().update("foobar").hex());
}

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::current_path() / "perfbench-test-tmp").string();
    removeTree(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { removeTree(dir_); }
  std::string dir_;
};

TEST_F(TempDir, TreeDigestIsStableAndCoversNamesAndBytes) {
  fs::create_directories(dir_ + "/a/verdicts");
  writeFile(dir_ + "/a/verdicts/x.json", "{\"v\":1}\n");
  writeFile(dir_ + "/a/service-journal.jsonl", "line\n");
  // The same files written in the other order.
  fs::create_directories(dir_ + "/b/verdicts");
  writeFile(dir_ + "/b/service-journal.jsonl", "line\n");
  writeFile(dir_ + "/b/verdicts/x.json", "{\"v\":1}\n");
  const std::string a = digestTree(dir_ + "/a");
  EXPECT_EQ(a, digestTree(dir_ + "/a"));
  EXPECT_EQ(a, digestTree(dir_ + "/b"));
  writeFile(dir_ + "/b/verdicts/x.json", "{\"v\":2}\n");
  EXPECT_NE(a, digestTree(dir_ + "/b"));
  fs::rename(dir_ + "/a/verdicts/x.json", dir_ + "/a/verdicts/y.json");
  EXPECT_NE(a, digestTree(dir_ + "/a"));
  // A filter leaves other files out of the digest.
  writeFile(dir_ + "/a/health.json", "{}");
  EXPECT_EQ(digestTree(dir_ + "/a", [](const std::string& name) {
              return name != "health.json";
            }),
            digestTree(dir_ + "/a", [](const std::string& name) {
              return name != "health.json" && name != "other";
            }));
}

TEST_F(TempDir, TreeStatsAndPrefixCounts) {
  writeFile(dir_ + "/flightrec-1.jsonl", "abc");
  writeFile(dir_ + "/flightrec-2.jsonl", "de");
  writeFile(dir_ + "/sub-1.json", "f");
  EXPECT_EQ(countFiles(dir_, "flightrec-"), 2u);
  const TreeStats stats = treeStats(dir_);
  EXPECT_EQ(stats.files, 3u);
  EXPECT_EQ(stats.bytes, 6u);
  EXPECT_EQ(treeStats(dir_ + "/absent").files, 0u);
}

std::vector<std::string> rendered(std::uint64_t seed) {
  std::vector<std::string> out;
  for (const auto& inv : serveQueue(seed)) {
    out.push_back(rebench::store::renderInvocation(inv));
  }
  return out;
}

TEST(Generators, ServeQueueIsDeterministicDistinctAndBalanced) {
  const std::vector<std::string> a = rendered(7);
  EXPECT_EQ(a, rendered(7));
  EXPECT_NE(a, rendered(8));
  ASSERT_EQ(a.size(), 120u);
  EXPECT_EQ(std::set<std::string>(a.begin(), a.end()).size(), 120u);
  std::map<std::string, int> repeatsPerCell;
  for (const auto& inv : serveQueue(7)) {
    EXPECT_EQ(inv.mode, "suite");
    EXPECT_TRUE(inv.withStore);
    repeatsPerCell[inv.system + "/" + inv.tag] += inv.repeats;
  }
  EXPECT_EQ(repeatsPerCell.size(), 24u);
  for (const auto& [cell, repeats] : repeatsPerCell) EXPECT_EQ(repeats, 9);
}

TEST(Generators, CampaignInputIsDeterministic) {
  const CampaignInput a = campaignInput(3);
  const CampaignInput b = campaignInput(3);
  EXPECT_EQ(a.targets, b.targets);
  EXPECT_EQ(rebench::store::renderInvocation(a.invocation),
            rebench::store::renderInvocation(b.invocation));
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].name, b.tests[i].name);
  }
  EXPECT_EQ(a.targets.size(), 6u);
  EXPECT_FALSE(a.tests.empty());
}

TEST(Generators, PerflogCorpusIsDeterministicWithAStepInRange) {
  const PerflogCorpus a = perflogCorpus(11, 40);
  const PerflogCorpus b = perflogCorpus(11, 40);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.stepIndex, b.stepIndex);
  EXPECT_NE(a.text, perflogCorpus(12, 40).text);
  EXPECT_EQ(a.rows, 40u * 216u);
  EXPECT_GE(a.stepIndex, 10u);
  EXPECT_LT(a.stepIndex, 30u);
}

TEST(Generators, QueryMixIsDeterministicAndBalanced) {
  const std::vector<Query> a = queryMix(5, 64);
  const std::vector<Query> b = queryMix(5, 64);
  ASSERT_EQ(a.size(), 64u);
  std::map<QueryKind, int> kinds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].fom, b[i].fom);
    ++kinds[a[i].kind];
  }
  for (const auto& [kind, count] : kinds) EXPECT_EQ(count, 16) << queryName(kind);
}

TEST(Report, JsonHasExactlyTheContractKeys) {
  Result result;
  result.attempted = 3;
  result.failed = 1;
  result.correct = false;
  result.metrics.push_back({"ops_per_s", 12.5, "1/s", 3, ""});
  result.reportOnly.push_back({"op_error_ratio", 1.0 / 3.0, "ratio", 3, ""});
  EXPECT_EQ(resultJson(result),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"ops_per_s\": {\"value\": 12.5, \"unit\": "
            "\"1/s\"}}}");
  std::ostringstream report;
  printReport(report, "w", result);
  EXPECT_NE(report.str().find("ops_per_s = 12.5 1/s (n=3)"), std::string::npos);
  EXPECT_NE(report.str().find("op_error_ratio"), std::string::npos);
}

void expectSameMetrics(const rebench::obs::json::Value& declared,
                       const std::vector<MetricSpec>& reported) {
  ASSERT_EQ(declared.array.size(), reported.size());
  for (std::size_t i = 0; i < reported.size(); ++i) {
    EXPECT_EQ(declared.array[i].at("name").text, reported[i].name);
    EXPECT_EQ(declared.array[i].at("unit").text, reported[i].unit);
  }
}

TEST(Report, BenchmarkJsonDeclaresWhatRunsReport) {
  const auto declared =
      rebench::obs::json::parse(readFile(PERFBENCH_BENCHMARK_JSON));
  expectSameMetrics(declared.at("end_to_end"), endToEndMetrics());
  expectSameMetrics(declared.at("per_layer"), perLayerMetrics());
  const auto& workloads = declared.at("workloads").array;
  ASSERT_EQ(workloads.size(), workloadNames().size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(workloads[i].at("name").text, workloadNames()[i]);
  }
}

TEST(Report, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(formatNumber(0.1), "0.1");
  EXPECT_EQ(formatNumber(1.2034567891234), "1.2034567891234");
  EXPECT_EQ(formatNumber(1.0 / 3.0), "0.3333333333333333");
}

TEST(Report, PassSurvivesTheTripFromChildToParent) {
  Pass pass;
  pass.wallSeconds = 4.123456789012345;
  pass.cpuSeconds = 3.5;
  pass.fsyncSeconds = 0.25;
  pass.ops = 120;
  pass.failed = 2;
  pass.opMs = {0.1, 1.0 / 3.0, 250.75};
  pass.digests = {"queue=0123456789abcdef", "stats/Copy=fedcba9876543210"};
  pass.problems = {"verdict log has 119 lines for 120 submissions"};
  const Pass back = decodePass(encodePass(pass));
  EXPECT_EQ(back.wallSeconds, pass.wallSeconds);
  EXPECT_EQ(back.cpuSeconds, pass.cpuSeconds);
  EXPECT_EQ(back.fsyncSeconds, pass.fsyncSeconds);
  EXPECT_EQ(back.ops, pass.ops);
  EXPECT_EQ(back.failed, pass.failed);
  EXPECT_EQ(back.opMs, pass.opMs);
  EXPECT_EQ(back.digests, pass.digests);
  EXPECT_EQ(back.problems, pass.problems);
  EXPECT_TRUE(decodePass(encodePass(Pass{})).opMs.empty());
}

TEST(LineClock, StampsEachLine) {
  LineClock clock;
  std::ostream out(&clock);
  out << "a cached\nb ran:clean" << "\n" << "c";
  EXPECT_EQ(clock.stamps().size(), 2u);
  out << "\n";
  EXPECT_EQ(clock.stamps().size(), 3u);
}

TEST(Spans, NestedSpansAreNotCountedTwiceTowardsCoverage) {
  SpanRecorder spans;
  {
    SpanRecorder::Scope outer(spans, "outer");
    SpanRecorder::Scope inner(spans, "inner");
  }
  { SpanRecorder::Scope other(spans, "outer"); }
  EXPECT_EQ(spans.count("outer"), 2u);
  EXPECT_EQ(spans.count("inner"), 1u);
  EXPECT_EQ(spans.spans()[1].parent, 0);
  EXPECT_DOUBLE_EQ(spans.topLevelMs(), spans.totalMs("outer"));
}

}  // namespace
}  // namespace perfbench
