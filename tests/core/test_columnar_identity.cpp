// Byte-identity gate: every DataFrame operation must reproduce the frozen
// row engine (legacy::RowFrame) bit-for-bit.  The corpus generator is a
// plain LCG so both engines see the same rows on every platform; the
// comparisons diff rendered CSV text, which is how downstream tooling
// consumes frames — identical bytes here means identical reports.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework/perflog.hpp"
#include "core/postproc/dataframe.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "legacy_rowframe.hpp"

namespace rebench {
namespace {

/// Deterministic corpus shared by both engines: repeated labels (so
/// group-by and pivot have real groups), duplicated values (so stable
/// sort order matters) and a value stream with enough digits to expose
/// any accumulation-order drift in mean/sum.
struct Corpus {
  std::vector<std::string> systems;
  std::vector<std::string> tests;
  std::vector<std::string> foms;
  std::vector<double> values;
};

Corpus makeCorpus(std::size_t rows) {
  const char* kSystems[] = {"archer2", "csd3", "cirrus", "isambard"};
  const char* kTests[] = {"stream", "hpgmg", "sombrero"};
  const char* kFoms[] = {"bw", "latency"};
  Corpus corpus;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    corpus.systems.push_back(kSystems[(state >> 33) % 4]);
    corpus.tests.push_back(kTests[(state >> 21) % 3]);
    corpus.foms.push_back(kFoms[(state >> 11) % 2]);
    // ~1/8 of rows repeat an exact value so sorts exercise stability.
    const double value = (state % 8 == 0)
                             ? 42.5
                             : static_cast<double>(state % 1000000) / 733.0;
    corpus.values.push_back(value);
  }
  return corpus;
}

DataFrame columnarFrame(const Corpus& corpus) {
  DataFrame frame;
  frame.addStrings("system", corpus.systems);
  frame.addStrings("test", corpus.tests);
  frame.addStrings("fom", corpus.foms);
  frame.addNumeric("value", corpus.values);
  return frame;
}

legacy::RowFrame rowFrame(const Corpus& corpus) {
  legacy::RowFrame frame;
  frame.addStrings("system", corpus.systems);
  frame.addStrings("test", corpus.tests);
  frame.addStrings("fom", corpus.foms);
  frame.addNumeric("value", corpus.values);
  return frame;
}

constexpr std::size_t kRows = 2000;

TEST(ColumnarIdentity, ToCsvBytesMatch) {
  const Corpus corpus = makeCorpus(kRows);
  EXPECT_EQ(columnarFrame(corpus).toCsv(), rowFrame(corpus).toCsv());
}

TEST(ColumnarIdentity, DescribeBytesMatch) {
  const Corpus corpus = makeCorpus(kRows);
  EXPECT_EQ(columnarFrame(corpus).describe().toCsv(),
            rowFrame(corpus).describe().toCsv());
}

TEST(ColumnarIdentity, GroupByBytesMatchForEveryAggregate) {
  const Corpus corpus = makeCorpus(kRows);
  const DataFrame columnar = columnarFrame(corpus);
  const legacy::RowFrame rows = rowFrame(corpus);
  const std::vector<std::string> keys = {"system", "fom"};
  for (const Agg agg : {Agg::kMean, Agg::kMin, Agg::kMax, Agg::kSum,
                        Agg::kCount, Agg::kFirst}) {
    SCOPED_TRACE(static_cast<int>(agg));
    EXPECT_EQ(columnar.groupBy(keys, "value", agg).toCsv(),
              rows.groupBy(keys, "value", agg).toCsv());
  }
}

TEST(ColumnarIdentity, SortByBytesMatchBothDirections) {
  const Corpus corpus = makeCorpus(kRows);
  const DataFrame columnar = columnarFrame(corpus);
  const legacy::RowFrame rows = rowFrame(corpus);
  // Duplicate values + a string sort: both exercise stable-order identity.
  EXPECT_EQ(columnar.sortBy("value", true).toCsv(),
            rows.sortBy("value", true).toCsv());
  EXPECT_EQ(columnar.sortBy("value", false).toCsv(),
            rows.sortBy("value", false).toCsv());
  EXPECT_EQ(columnar.sortBy("system", true).toCsv(),
            rows.sortBy("system", true).toCsv());
}

TEST(ColumnarIdentity, FilterAndSelectBytesMatch) {
  const Corpus corpus = makeCorpus(kRows);
  const DataFrame columnar = columnarFrame(corpus);
  const legacy::RowFrame rows = rowFrame(corpus);
  EXPECT_EQ(columnar.filterEquals("system", "csd3").toCsv(),
            rows.filterEquals("system", "csd3").toCsv());
  const std::vector<std::string> cols = {"fom", "value"};
  EXPECT_EQ(columnar.selectColumns(cols).toCsv(),
            rows.selectColumns(cols).toCsv());
}

TEST(ColumnarIdentity, PivotMatchesLabelsAndCells) {
  const Corpus corpus = makeCorpus(kRows);
  const PivotTable a =
      columnarFrame(corpus).pivot("system", "test", "value", Agg::kMean);
  const PivotTable b =
      rowFrame(corpus).pivot("system", "test", "value", Agg::kMean);
  EXPECT_EQ(a.rowLabels, b.rowLabels);
  EXPECT_EQ(a.colLabels, b.colLabels);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t r = 0; r < a.cells.size(); ++r) {
    ASSERT_EQ(a.cells[r].size(), b.cells[r].size());
    for (std::size_t c = 0; c < a.cells[r].size(); ++c) {
      ASSERT_EQ(a.cells[r][c].has_value(), b.cells[r][c].has_value());
      if (a.cells[r][c]) {
        // Bit-for-bit, not approximately: same accumulation order.
        EXPECT_EQ(*a.cells[r][c], *b.cells[r][c]);
      }
    }
  }
}

TEST(ColumnarIdentity, CsvRoundTripMatchesIncludingQuoting) {
  // Cells with commas, quotes, leading spaces and number-like text hit
  // every branch of the quoting and type-sniffing rules.
  DataFrame columnar;
  legacy::RowFrame rows;
  const std::vector<std::string> awkward = {
      "plain", "with,comma", "with\"quote", " leading space", "123abc"};
  const std::vector<std::string> numericText = {"1", "2.5", "-3e2", "0",
                                                "7"};
  columnar.addStrings("label", awkward);
  columnar.addStrings("reading", numericText);
  rows.addStrings("label", awkward);
  rows.addStrings("reading", numericText);

  const std::string csvA = columnar.toCsv();
  const std::string csvB = rows.toCsv();
  EXPECT_EQ(csvA, csvB);

  // Both parsers must sniff "reading" numeric and re-render identically.
  const DataFrame reparsedA = DataFrame::fromCsv(csvA);
  const legacy::RowFrame reparsedB = legacy::RowFrame::fromCsv(csvB);
  EXPECT_TRUE(reparsedA.isNumeric("reading"));
  EXPECT_TRUE(reparsedB.isNumeric("reading"));
  EXPECT_EQ(reparsedA.toCsv(), reparsedB.toCsv());
}

TEST(ColumnarIdentity, PerflogBridgeBytesMatch) {
  std::vector<PerfLogEntry> entries;
  const Corpus corpus = makeCorpus(200);
  for (std::size_t i = 0; i < corpus.values.size(); ++i) {
    PerfLogEntry entry;
    entry.timestamp = std::to_string(i);
    entry.system = corpus.systems[i];
    entry.partition = "standard";
    entry.environ = "gcc@11.2.0";
    entry.testName = corpus.tests[i];
    entry.spec = corpus.tests[i] + "@1.0";
    entry.fomName = corpus.foms[i];
    entry.value = corpus.values[i];
    entry.unit = Unit::kSeconds;
    entry.result = i % 7 == 0 ? "fail" : "pass";
    entries.push_back(entry);
  }
  EXPECT_EQ(perflogToDataFrame(entries).toCsv(),
            legacy::rowFrameFromPerflog(entries).toCsv());
}

TEST(ColumnarIdentity, DerivedFrameChainsStayIdentical) {
  // Chain filter -> groupBy -> sort, the report pipeline's actual shape.
  const Corpus corpus = makeCorpus(kRows);
  const std::vector<std::string> keys = {"test"};
  const std::string a = columnarFrame(corpus)
                            .filterEquals("fom", "bw")
                            .groupBy(keys, "value", Agg::kMean)
                            .sortBy("value", false)
                            .toCsv();
  const std::string b = rowFrame(corpus)
                            .filterEquals("fom", "bw")
                            .groupBy(keys, "value", Agg::kMean)
                            .sortBy("value", false)
                            .toCsv();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rebench
