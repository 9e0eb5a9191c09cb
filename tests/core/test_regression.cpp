#include "core/postproc/regression.hpp"

#include <gtest/gtest.h>

#include "core/util/error.hpp"
#include "core/util/rng.hpp"
#include "core/util/strings.hpp"

namespace rebench {
namespace {

PerfLogEntry makeEntry(const std::string& timestamp, double value,
                       const std::string& system = "archer2",
                       const std::string& fom = "Triad") {
  PerfLogEntry entry;
  entry.timestamp = timestamp;
  entry.system = system;
  entry.partition = "compute";
  entry.testName = "BabelstreamTest_omp";
  entry.fomName = fom;
  entry.value = value;
  entry.unit = Unit::kMBperSec;
  entry.result = "pass";
  entry.binaryId = "bin-" + timestamp;
  return entry;
}

std::string stamp(int i) { return std::string("T").append(std::to_string(i)); }

SeriesKey defaultKey() {
  return {"archer2", "compute", "BabelstreamTest_omp", "Triad"};
}

TEST(PerfHistory, CollectsSeriesByKey) {
  PerfHistory history;
  history.add(makeEntry("T0", 100.0));
  history.add(makeEntry("T1", 101.0));
  history.add(makeEntry("T0", 55.0, "csd3"));
  ASSERT_EQ(history.keys().size(), 2u);
  EXPECT_EQ(history.series(defaultKey()).size(), 2u);
  EXPECT_THROW(
      history.series({"nowhere", "p", "t", "f"}), NotFoundError);
}

TEST(PerfHistory, ErrorEntriesIgnored) {
  PerfHistory history;
  PerfLogEntry bad = makeEntry("T0", 0.0);
  bad.result = "error";
  history.add(bad);
  EXPECT_TRUE(history.keys().empty());
}

TEST(Detector, QuietHistoryRaisesNothing) {
  PerfHistory history;
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    history.add(makeEntry(stamp(i),
                          100.0 * rng.noiseFactor(0.01)));
  }
  EXPECT_TRUE(history.detect().empty());
}

TEST(Detector, InjectedSlowdownIsFlagged) {
  PerfHistory history;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    // 10% regression from run 12 onwards (a quietly-degraded system).
    const double base = i < 12 ? 100.0 : 90.0;
    history.add(makeEntry(stamp(i),
                          base * rng.noiseFactor(0.01)));
  }
  const auto events = history.detect();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, RegressionKind::kDropBelowBand);
  EXPECT_EQ(events.front().pointIndex, 12u);
  EXPECT_LT(events.front().deviation, -0.05);
  EXPECT_TRUE(str::contains(events.front().detail, "archer2"));
}

TEST(Detector, DetailNamesThePointIndexWhenTimestampsRepeat) {
  // Two campaigns appended to one perflog: each restarts its logical
  // stamps at T0, so only the index within the series says which point.
  PerfHistory history;
  for (int i = 0; i < 10; ++i) {
    history.add(makeEntry(stamp(i), 100.0));
  }
  history.add(makeEntry("T0", 50.0));
  history.add(makeEntry("T1", 50.0));
  const auto events = history.detect();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().pointIndex, 10u);
  EXPECT_TRUE(str::contains(events.front().detail, "/Triad #10 @T0: "));
}

TEST(Detector, SuspiciousImprovementAlsoFlagged) {
  // Bailey's tricks cut both ways: a sudden "improvement" often means the
  // benchmark silently changed (wrong size, wrong build).
  PerfHistory history;
  Rng rng(9);
  for (int i = 0; i < 15; ++i) {
    const double base = i < 10 ? 100.0 : 150.0;
    history.add(makeEntry(stamp(i),
                          base * rng.noiseFactor(0.01)));
  }
  const auto events = history.detect();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, RegressionKind::kRiseAboveBand);
}

TEST(Detector, MinHistoryRespected) {
  PerfHistory history;
  history.add(makeEntry("T0", 100.0));
  history.add(makeEntry("T1", 10.0));  // huge drop, but history too short
  DetectorOptions options;
  options.minHistory = 4;
  EXPECT_TRUE(history.detect(options).empty());
}

TEST(Detector, MinBandFractionAbsorbsTinyNoise) {
  // A perfectly flat history has sigma == 0; without the band floor every
  // subsequent point at 100.3 would be "3 sigma out".
  PerfHistory history;
  for (int i = 0; i < 10; ++i) {
    history.add(makeEntry(stamp(i), 100.0));
  }
  history.add(makeEntry("T10", 100.3));
  EXPECT_TRUE(history.detect().empty());
}

TEST(Detector, SeriesAreIndependent) {
  PerfHistory history;
  Rng rng(11);
  for (int i = 0; i < 16; ++i) {
    history.add(makeEntry(stamp(i),
                          100.0 * rng.noiseFactor(0.01)));          // healthy
    const double base = i < 10 ? 200.0 : 160.0;                    // broken
    history.add(makeEntry(stamp(i), base, "csd3"));
  }
  const auto events = history.detect();
  ASSERT_FALSE(events.empty());
  for (const RegressionEvent& event : events) {
    EXPECT_EQ(event.key.system, "csd3");
  }
}

TEST(ReferenceCheck, WithinBandIsClean) {
  PerfHistory history;
  history.add(makeEntry("T0", 98.0));
  EXPECT_FALSE(history.checkAgainstReference(defaultKey(), 100.0, -0.05,
                                             0.05));
}

TEST(ReferenceCheck, OutsideBandFlagsLatestPoint) {
  PerfHistory history;
  history.add(makeEntry("T0", 100.0));
  history.add(makeEntry("T1", 80.0));
  const auto event =
      history.checkAgainstReference(defaultKey(), 100.0, -0.05, 0.05);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, RegressionKind::kDropBelowBand);
  EXPECT_EQ(event->pointIndex, 1u);
  EXPECT_NEAR(event->deviation, -0.2, 1e-9);
}

TEST(HistoryPlot, MarksFlaggedPoints) {
  PerfHistory history;
  for (int i = 0; i < 12; ++i) {
    history.add(makeEntry(stamp(i), i < 8 ? 100.0 : 80.0));
  }
  const auto events = history.detect();
  const std::string plot = renderHistoryPlot(
      history.series(defaultKey()), events, "Triad history");
  EXPECT_TRUE(str::contains(plot, "Triad history"));
  EXPECT_TRUE(str::contains(plot, "*"));
  EXPECT_TRUE(str::contains(plot, "!"));
}

TEST(HistoryPlot, ShortHistoryHandled) {
  EXPECT_TRUE(str::contains(
      renderHistoryPlot({}, {}, "empty"), "insufficient history"));
}

}  // namespace
}  // namespace rebench
