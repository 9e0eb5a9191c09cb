// Unit tests for the longitudinal history subsystem: segment
// serialization, the hash-chained store-backed index (pinning, broken
// chains), FOM aggregation, changepoint detection, trend rendering and
// the regression gate.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/framework/pipeline.hpp"
#include "core/history/changepoint.hpp"
#include "core/history/history.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"

namespace rebench::history {
namespace {

namespace fs = std::filesystem;

HistoryRecord makeRecord(const std::string& test, const std::string& fom,
                         double mean) {
  HistoryRecord record;
  record.test = test;
  record.target = "archer2:compute";
  record.fom = fom;
  record.manifestHash = "0123456789abcdef";
  record.envFingerprint = "fedcba9876543210";
  record.specHash = "00ff00ff00ff00ff";
  record.mean = mean;
  record.min = mean - 1.0;
  record.max = mean + 1.0;
  record.repeats = 3;
  record.simTimestamp = 12.5;
  return record;
}

class HistoryIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("rebench-history-test-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST(HistorySegmentTest, SerializeParseRoundTrip) {
  std::vector<HistoryRecord> records{makeRecord("StreamTest", "Triad", 100.5),
                                     makeRecord("StreamTest", "Copy", 90.25)};
  records[0].seq = 7;
  records[1].seq = 8;
  const std::string blob = serializeSegment(records, "cafecafecafecafe", 3, 7);
  std::string prev;
  std::uint64_t seq = 0;
  const auto parsed = parseSegment(blob, &prev, &seq);
  EXPECT_EQ(prev, "cafecafecafecafe");
  EXPECT_EQ(seq, 3u);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].seq, 7u);
  EXPECT_EQ(parsed[0].test, "StreamTest");
  EXPECT_EQ(parsed[0].fom, "Triad");
  EXPECT_EQ(parsed[0].manifestHash, "0123456789abcdef");
  EXPECT_EQ(parsed[0].envFingerprint, "fedcba9876543210");
  EXPECT_EQ(parsed[0].specHash, "00ff00ff00ff00ff");
  EXPECT_DOUBLE_EQ(parsed[0].mean, 100.5);
  EXPECT_DOUBLE_EQ(parsed[1].mean, 90.25);
  EXPECT_EQ(parsed[1].repeats, 3);
}

TEST(HistorySegmentTest, ParseRejectsWrongSchema) {
  EXPECT_THROW(parseSegment("{\"kind\":\"meta\",\"schema\":\"bogus/9\"}\n"),
               Error);
}

TEST(HistorySegmentTest, ParseRejectsMissingMeta) {
  EXPECT_THROW(parseSegment("{\"kind\":\"record\",\"seq\":0}\n"), Error);
}

TEST_F(HistoryIndexTest, AppendAssignsMonotoneSequenceAcrossSegments) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  EXPECT_EQ(index.appendSegment({}), "");
  std::vector<HistoryRecord> first{makeRecord("A", "Triad", 100.0),
                                   makeRecord("B", "Triad", 50.0)};
  std::vector<HistoryRecord> second{makeRecord("A", "Triad", 101.0)};
  const std::string h1 = index.appendSegment(first);
  const std::string h2 = index.appendSegment(second);
  EXPECT_NE(h1, "");
  EXPECT_NE(h2, h1);
  EXPECT_TRUE(store.pinned(h1));
  EXPECT_TRUE(store.pinned(h2));
  EXPECT_EQ(index.segmentCount(), 2u);

  const auto all = index.readAll();
  ASSERT_EQ(all.size(), 3u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].seq, i);
  EXPECT_EQ(all[2].test, "A");
  EXPECT_DOUBLE_EQ(all[2].mean, 101.0);

  // The chain and its sequence numbering survive a reopen.
  store::ObjectStore reopened(dir_);
  HistoryIndex reopenedIndex(reopened);
  const auto again = reopenedIndex.readAll();
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[2].seq, 2u);
  const std::string h3 =
      reopenedIndex.appendSegment({{makeRecord("C", "Triad", 10.0)}});
  EXPECT_EQ(reopenedIndex.readAll().back().seq, 3u);
  EXPECT_TRUE(reopened.pinned(h3));
}

TEST_F(HistoryIndexTest, QueryFiltersByTestTargetAndFom) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  std::vector<HistoryRecord> records{makeRecord("A", "Triad", 1.0),
                                     makeRecord("A", "Copy", 2.0),
                                     makeRecord("B", "Triad", 3.0)};
  records[2].target = "noctua2:gpu";
  index.appendSegment(records);

  EXPECT_EQ(index.query("A").size(), 2u);
  EXPECT_EQ(index.query("A", "archer2:compute", "Copy").size(), 1u);
  EXPECT_EQ(index.query("", "noctua2:gpu").size(), 1u);
  EXPECT_EQ(index.query("", "", "Triad").size(), 2u);
  EXPECT_EQ(index.query("Missing").size(), 0u);
}

TEST_F(HistoryIndexTest, PinnedSegmentsSurviveEvictionAndUnpinnedBreak) {
  store::ObjectStore store(dir_, {.maxBytes = 4096});
  HistoryIndex index(store);
  const std::string h1 =
      index.appendSegment({{makeRecord("A", "Triad", 1.0)}});
  const std::string h2 =
      index.appendSegment({{makeRecord("A", "Triad", 2.0)}});
  // Pinned segments ride out pressure that evicts everything else.
  store.put(std::string(8192, 'x'));
  EXPECT_EQ(index.readAll().size(), 2u);

  // An unpinned middle segment is fair game — and its loss is loud.
  store.unpin(h1);
  store.put(std::string(8192, 'y'));
  EXPECT_FALSE(store.contains(h1));
  EXPECT_TRUE(store.contains(h2));
  EXPECT_THROW(index.readAll(), Error);
  try {
    index.readAll();
    FAIL() << "expected broken-chain error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(h1), std::string::npos);
  }
}

TEST_F(HistoryIndexTest, AppendAndQueryEmitContractCompliantSpans) {
  store::ObjectStore store(dir_);
  HistoryIndex index(store);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  index.setObservability(&tracer, &metrics);
  index.appendSegment({{makeRecord("A", "Triad", 1.0),
                        makeRecord("B", "Copy", 2.0)}});
  index.query("A", "archer2:compute");

  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].name, "history.append");
  EXPECT_EQ(tracer.spans()[0].attrs.at("test"), "A");
  EXPECT_EQ(tracer.spans()[0].attrs.at("records"), "2");
  EXPECT_EQ(tracer.spans()[2].name, "history.query");
  EXPECT_EQ(tracer.spans()[2].attrs.at("fom"), "*");
  EXPECT_EQ(tracer.spans()[2].attrs.at("records"), "1");
  EXPECT_EQ(metrics.counter("history.append").value(), 2u);
  EXPECT_EQ(metrics.counter("history.query").value(), 1u);

  // The emitted trace satisfies the trace_lint span contract.
  const obs::TraceFile trace = obs::parseTraceJsonl(tracer.toJsonl(&metrics));
  EXPECT_TRUE(obs::lintTrace(trace).empty());
}

TEST(HistoryLintTest, HistorySpanMissingAttributesIsFlagged) {
  obs::Tracer tracer;
  tracer.beginSpan("history.append");
  tracer.setAttr("test", "A");  // target/fom/records missing
  tracer.endSpan();
  const obs::TraceFile trace = obs::parseTraceJsonl(tracer.toJsonl());
  EXPECT_FALSE(obs::lintTrace(trace).empty());
}

TEST(HistoryAggregateTest, AggregatesPerTestTargetFomInCanonicalOrder) {
  std::vector<TestRunResult> results(4);
  results[0].testName = "StreamTest";
  results[0].system = "archer2";
  results[0].partition = "compute";
  results[0].foms = {{"Triad", 100.0}, {"Copy", 80.0}};
  results[1] = results[0];
  results[1].foms = {{"Triad", 110.0}, {"Copy", 70.0}};
  results[2].testName = "HpcgTest";
  results[2].system = "noctua2";
  results[2].partition = "gpu";
  results[2].foms = {{"GFLOPs", 42.0}};
  results[3] = results[2];       // quarantined runs drop out
  results[3].quarantined = true;

  const auto aggregates = aggregateFoms(results);
  ASSERT_EQ(aggregates.size(), 3u);
  EXPECT_EQ(aggregates[0].test, "HpcgTest");
  EXPECT_EQ(aggregates[0].fom, "GFLOPs");
  EXPECT_EQ(aggregates[0].repeats, 1);
  EXPECT_EQ(aggregates[1].fom, "Copy");
  EXPECT_DOUBLE_EQ(aggregates[1].mean, 75.0);
  EXPECT_DOUBLE_EQ(aggregates[1].min, 70.0);
  EXPECT_DOUBLE_EQ(aggregates[1].max, 80.0);
  EXPECT_EQ(aggregates[2].fom, "Triad");
  EXPECT_DOUBLE_EQ(aggregates[2].mean, 105.0);
  EXPECT_EQ(aggregates[2].repeats, 2);
}

TEST(ChangepointTest, DetectsSeededMeanShiftOnce) {
  // A 6% drop: a partially-overlapping after-window shifts the mean by
  // only 2% / 4%, so the single flag lands exactly on the boundary.
  std::vector<double> series;
  for (int i = 0; i < 20; ++i) series.push_back(i < 12 ? 100.0 : 94.0);
  const auto flags = detectChangepoints(series, {});
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_EQ(flags[0].index, 12u);
  EXPECT_LT(flags[0].shift, 0.0);
  EXPECT_DOUBLE_EQ(flags[0].meanBefore, 100.0);
  EXPECT_DOUBLE_EQ(flags[0].meanAfter, 94.0);
  // Deterministic: the same series always yields the same flags.
  const auto again = detectChangepoints(series, {});
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].index, flags[0].index);
}

TEST(ChangepointTest, FlatAndNoisySeriesYieldNoFlags) {
  EXPECT_TRUE(detectChangepoints(std::vector<double>(16, 5.0), {}).empty());
  // Wobble below both the relative threshold and the sigma floor.
  std::vector<double> noisy;
  for (int i = 0; i < 16; ++i) noisy.push_back(100.0 + 0.5 * (i % 4));
  EXPECT_TRUE(detectChangepoints(noisy, {}).empty());
  EXPECT_TRUE(detectChangepoints(std::vector<double>{1.0, 2.0}, {}).empty());
}

TEST(ChangepointTest, RollingStatsAndSparkline) {
  const std::vector<double> values{2.0, 4.0, 6.0, 8.0};
  EXPECT_DOUBLE_EQ(rollingMean(values, 0, 3), 2.0);
  EXPECT_DOUBLE_EQ(rollingMean(values, 2, 3), 4.0);
  EXPECT_DOUBLE_EQ(rollingMean(values, 3, 2), 7.0);
  EXPECT_DOUBLE_EQ(rollingStddev(values, 0, 3), 0.0);
  EXPECT_NEAR(rollingStddev(values, 3, 2), 1.0, 1e-12);

  EXPECT_EQ(sparkline(std::vector<double>{1.0, 1.0, 1.0}), "+++");
  const std::string art = sparkline(values);
  ASSERT_EQ(art.size(), 4u);
  EXPECT_EQ(art.front(), ' ');
  EXPECT_EQ(art.back(), '@');
  EXPECT_TRUE(sparkline({}).empty());
}

TEST(ChangepointTest, SeriesShorterThanTwoWindowsYieldsNoFlags) {
  // A boundary needs a full `window` on each side, so anything shorter
  // than 2*window has no candidate boundary at all — even with a clear
  // regime shift inside it.
  const ChangepointOptions options;  // window = 3
  EXPECT_TRUE(detectChangepoints({}, options).empty());
  EXPECT_TRUE(
      detectChangepoints(std::vector<double>{100.0}, options).empty());
  EXPECT_TRUE(
      detectChangepoints(std::vector<double>(5, 100.0), options).empty());
  EXPECT_TRUE(detectChangepoints(
                  std::vector<double>{100.0, 100.0, 50.0, 50.0, 50.0},
                  options)
                  .empty());
}

TEST(ChangepointTest, ConstantSeriesNeverFlags) {
  // Identical values at any length: zero shift, zero stddev — the
  // detector must not divide by the zero noise floor or flag anything.
  for (const std::size_t n : {6u, 7u, 16u, 64u}) {
    EXPECT_TRUE(
        detectChangepoints(std::vector<double>(n, 42.0), {}).empty());
  }
}

TEST(ChangepointTest, SinglePointShiftAtFinalRecordCannotFlag) {
  // The newest record dropping alone cannot be flagged: the last full
  // after-window dilutes the one shifted point to a third of its
  // magnitude, below the relative threshold.  (That is the regression
  // gate's job — see HistoryGateTest — not the changepoint scan's.)
  std::vector<double> series(12, 100.0);
  series.back() = 94.0;
  EXPECT_TRUE(detectChangepoints(series, {}).empty());
}

TEST(HistoryRenderTest, TextViewShowsTrendTableAndChangepoints) {
  std::vector<HistoryRecord> records;
  for (int i = 0; i < 12; ++i) {
    auto record = makeRecord("StreamTest", "Triad", i < 8 ? 100.0 : 94.0);
    record.seq = static_cast<std::uint64_t>(i);
    records.push_back(record);
  }
  const std::string text = renderHistory(records, {});
  EXPECT_NE(text.find("== StreamTest @ archer2:compute · Triad (12 records)"),
            std::string::npos);
  EXPECT_NE(text.find("trend |"), std::string::npos);
  EXPECT_NE(text.find("roll_mean"), std::string::npos);
  EXPECT_NE(text.find("changepoint @ seq 8"), std::string::npos);
  EXPECT_EQ(text, renderHistory(records, {}));  // byte-deterministic

  const std::string json = renderHistory(
      records, {.json = true, .window = 5, .changepoint = {}});
  EXPECT_NE(json.find("\"schema\":\"rebench.history/1\""), std::string::npos);
  EXPECT_NE(json.find("\"changepoint\":true"), std::string::npos);
  EXPECT_NE(json.find("\"changepoints\":[{\"index\":8"), std::string::npos);

  const std::string empty = renderHistory({}, {});
  EXPECT_NE(empty.find("no matching records"), std::string::npos);
}

TEST(HistoryGateTest, FlagsDropsBeyondThresholdOnly) {
  std::vector<HistoryRecord> records;
  for (double mean : {100.0, 102.0, 98.0, 100.0}) {
    records.push_back(makeRecord("A", "Triad", mean));
  }
  auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].regression);
  EXPECT_FALSE(verdicts[0].insufficient);
  EXPECT_DOUBLE_EQ(verdicts[0].baseline, 100.0);
  EXPECT_DOUBLE_EQ(verdicts[0].latest, 100.0);

  records.push_back(makeRecord("A", "Triad", 80.0));
  verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].regression);
  EXPECT_LT(verdicts[0].delta, -0.05);

  // An *improvement* of the same magnitude is not a regression.
  records.back().mean = 120.0;
  verdicts = checkRegression(records, {});
  EXPECT_FALSE(verdicts[0].regression);

  // A tighter window ignores older points.
  records.back().mean = 97.0;
  verdicts = checkRegression(records, {.window = 1, .threshold = 0.05});
  EXPECT_DOUBLE_EQ(verdicts[0].baseline, 100.0);
  EXPECT_FALSE(verdicts[0].regression);
}

TEST(HistoryGateTest, SingleRecordSeriesIsInsufficientNotFailing) {
  std::vector<HistoryRecord> records{makeRecord("A", "Triad", 100.0),
                                     makeRecord("B", "Triad", 50.0),
                                     makeRecord("B", "Triad", 30.0)};
  const auto verdicts = checkRegression(records, {});
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].insufficient);
  EXPECT_FALSE(verdicts[0].regression);
  EXPECT_TRUE(verdicts[1].regression);
}

}  // namespace
}  // namespace rebench::history
