// Unit tests for the columnar engine underneath DataFrame: column
// primitives, zone-map skipping, schema-checked concatenation, the
// on-disk colframe cache and streaming perflog assimilation.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework/perflog.hpp"
#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/postproc/columnar/arena.hpp"
#include "core/postproc/columnar/colfile.hpp"
#include "core/postproc/columnar/column.hpp"
#include "core/postproc/columnar/kernels.hpp"
#include "core/postproc/columnar/merge.hpp"
#include "core/postproc/columnar/table.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {
namespace {

namespace fs = std::filesystem;
using columnar::kChunkRows;
using columnar::kNullCode;

std::string tempPath(const std::string& leaf) {
  const fs::path path = fs::path(::testing::TempDir()) / leaf;
  fs::remove_all(path);  // hermetic across reruns: TempDir() is stable
  return path.string();
}

// ---- layer 0: column primitives -----------------------------------------

TEST(NullBitmap, AllValidRunsCostNoStorage) {
  columnar::NullBitmap bitmap;
  bitmap.appendRun(1000, true);
  EXPECT_EQ(bitmap.size(), 1000u);
  EXPECT_TRUE(bitmap.empty());  // never materialized
  EXPECT_EQ(bitmap.nullCount(), 0u);
  EXPECT_TRUE(bitmap.valid(0));
  EXPECT_TRUE(bitmap.valid(999));
}

TEST(NullBitmap, FirstNullBackfillsEarlierRowsAsValid) {
  columnar::NullBitmap bitmap;
  bitmap.appendRun(70, true);  // crosses a word boundary before tracking
  bitmap.append(false);
  bitmap.append(true);
  EXPECT_EQ(bitmap.size(), 72u);
  EXPECT_FALSE(bitmap.empty());
  EXPECT_EQ(bitmap.nullCount(), 1u);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_TRUE(bitmap.valid(i));
  EXPECT_FALSE(bitmap.valid(70));
  EXPECT_TRUE(bitmap.valid(71));
}

TEST(NullBitmap, RoundTripsThroughRawWords) {
  columnar::NullBitmap bitmap;
  bitmap.append(true);
  bitmap.append(false);
  bitmap.append(false);
  bitmap.append(true);
  const columnar::NullBitmap copy =
      columnar::NullBitmap::fromWords(bitmap.words(), bitmap.size());
  EXPECT_EQ(copy.nullCount(), 2u);
  EXPECT_TRUE(copy.valid(0));
  EXPECT_FALSE(copy.valid(1));
  EXPECT_FALSE(copy.valid(2));
  EXPECT_TRUE(copy.valid(3));
}

TEST(Dictionary, AssignsCodesInFirstSeenOrder) {
  columnar::Dictionary dict;
  EXPECT_EQ(dict.encode("csd3"), 0u);
  EXPECT_EQ(dict.encode("archer2"), 1u);
  EXPECT_EQ(dict.encode("csd3"), 0u);  // repeat reuses the code
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.at(1), "archer2");
  ASSERT_TRUE(dict.find("archer2").has_value());
  EXPECT_EQ(*dict.find("archer2"), 1u);
  EXPECT_FALSE(dict.find("cirrus").has_value());
}

TEST(TaggedColumnBuilder, CommitsNumericOnlyWhenEveryCellParses) {
  columnar::TaggedColumnBuilder numeric;
  numeric.add("1.5");
  numeric.add("-2e3");
  EXPECT_TRUE(numeric.numeric());

  columnar::TaggedColumnBuilder mixed;
  mixed.add("1.5");
  mixed.add("1.5 seconds");  // partial parse is not numeric
  EXPECT_FALSE(mixed.numeric());

  columnar::TaggedColumnBuilder empty;
  EXPECT_FALSE(empty.numeric());  // no evidence -> strings
}

TEST(TaggedColumnBuilder, NullsKeepNumericEligibility) {
  columnar::TaggedColumnBuilder builder;
  builder.add("4.0");
  builder.addNull();
  builder.add("8.0");
  EXPECT_TRUE(builder.numeric());
  EXPECT_EQ(builder.nullCount(), 1u);
  columnar::DoubleColumn col = builder.takeNumeric();
  ASSERT_EQ(col.values.size(), 3u);
  EXPECT_DOUBLE_EQ(col.values[0], 4.0);
  EXPECT_DOUBLE_EQ(col.values[2], 8.0);
  EXPECT_FALSE(col.validity.valid(1));
  EXPECT_EQ(col.nullCount(), 1u);
}

TEST(TaggedColumnBuilder, TakeStringsEncodesNullsAsSentinel) {
  columnar::TaggedColumnBuilder builder;
  builder.add("alpha");
  builder.addNull();
  builder.add("alpha");
  EXPECT_FALSE(builder.numeric());
  columnar::StringColumn col = builder.takeStrings();
  ASSERT_EQ(col.codes.size(), 3u);
  EXPECT_EQ(col.codes[0], 0u);
  EXPECT_EQ(col.codes[1], kNullCode);
  EXPECT_EQ(col.codes[2], 0u);
  EXPECT_EQ(col.nullCount(), 1u);
  const auto& decoded = col.materialize();
  EXPECT_EQ(decoded[1], "");  // nulls decode to ""
}

// ---- layer 2: zone-map skipping -----------------------------------------

TEST(ZoneMaps, EqualityProbeSkipsChunksOutsideCodeRange) {
  // Two full chunks: the first holds only "early", the second only "late".
  columnar::StringColumn col;
  for (std::size_t i = 0; i < kChunkRows; ++i) {
    columnar::appendString(col, "early");
  }
  for (std::size_t i = 0; i < kChunkRows; ++i) {
    columnar::appendString(col, "late");
  }
  columnar::Arena arena;
  columnar::KernelStats stats;
  const auto hits =
      columnar::selectEquals(col, "late", arena, &stats);
  EXPECT_EQ(hits.size(), kChunkRows);
  EXPECT_EQ(hits.front(), kChunkRows);
  EXPECT_EQ(stats.chunks, 2u);
  EXPECT_EQ(stats.skippedChunks, 1u);  // the all-"early" chunk
  EXPECT_EQ(stats.rows, 2 * kChunkRows);
}

TEST(ZoneMaps, ProbeAbsentFromDictionarySkipsEveryChunk) {
  columnar::StringColumn col;
  for (std::size_t i = 0; i < kChunkRows + 10; ++i) {
    columnar::appendString(col, "only");
  }
  columnar::Arena arena;
  columnar::KernelStats stats;
  const auto hits = columnar::selectEquals(col, "missing", arena, &stats);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(stats.skippedChunks, stats.chunks);
}

TEST(ZoneMaps, RangeProbeSkipsChunksOutsideValueRange) {
  columnar::DoubleColumn col;
  for (std::size_t i = 0; i < kChunkRows; ++i) {
    columnar::appendDouble(col, static_cast<double>(i % 100));
  }
  for (std::size_t i = 0; i < kChunkRows; ++i) {
    columnar::appendDouble(col, 1000.0 + static_cast<double>(i % 100));
  }
  columnar::Arena arena;
  columnar::KernelStats stats;
  const auto hits = columnar::selectRange(col, 1000.0, 1010.0, arena, &stats);
  EXPECT_FALSE(hits.empty());
  EXPECT_EQ(stats.chunks, 2u);
  EXPECT_EQ(stats.skippedChunks, 1u);
  for (const std::uint32_t row : hits) EXPECT_GE(row, kChunkRows);
}

TEST(ZoneMaps, NumericZonesIgnoreNullSlots) {
  columnar::DoubleColumn col;
  columnar::appendDouble(col, 5.0);
  columnar::appendDoubleNull(col);  // NaN slot must not poison min/max
  columnar::appendDouble(col, 7.0);
  const auto& zones = col.zones();
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_EQ(zones[0].count, 3u);
  EXPECT_EQ(zones[0].nulls, 1u);
  EXPECT_DOUBLE_EQ(zones[0].min, 5.0);
  EXPECT_DOUBLE_EQ(zones[0].max, 7.0);
}

TEST(SortedPercentile, LinearInterpolationMatchesStatsFormula) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(columnar::sortedPercentile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(columnar::sortedPercentile(sorted, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(columnar::sortedPercentile(sorted, 50.0), 2.5);
}

// ---- layer 3: concat / appender -----------------------------------------

columnar::Table twoColumnChunk(const std::string& name0,
                               const std::string& name1, bool secondNumeric) {
  columnar::Table table;
  columnar::StringColumn s;
  columnar::appendString(s, "x");
  table.columns.push_back({name0, std::move(s)});
  if (secondNumeric) {
    columnar::DoubleColumn d;
    columnar::appendDouble(d, 1.0);
    table.columns.push_back({name1, std::move(d)});
  } else {
    columnar::StringColumn t;
    columnar::appendString(t, "y");
    table.columns.push_back({name1, std::move(t)});
  }
  table.rows = 1;
  return table;
}

TEST(TableAppender, NamesFirstMismatchingColumnByName) {
  columnar::TableAppender appender;
  appender.append(twoColumnChunk("system", "value", true));
  try {
    appender.append(twoColumnChunk("system", "different", true));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot concat frames: column 2 is 'different' in frame 2 "
              "but 'value' in frame 1");
  }
}

TEST(TableAppender, NamesFirstMismatchingColumnByType) {
  columnar::TableAppender appender;
  appender.append(twoColumnChunk("system", "value", true));
  try {
    appender.append(twoColumnChunk("system", "value", false));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot concat frames: column 'value' is string in frame 2 "
              "but numeric in frame 1");
  }
}

TEST(TableAppender, ReportsColumnCountMismatch) {
  columnar::TableAppender appender;
  appender.append(twoColumnChunk("system", "value", true));
  columnar::Table narrow;
  columnar::StringColumn s;
  columnar::appendString(s, "x");
  narrow.columns.push_back({"system", std::move(s)});
  narrow.rows = 1;
  try {
    appender.append(narrow);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot concat frames: frame 2 has 1 column(s), frame 1 has 2");
  }
}

TEST(TableAppender, TracksPeakBufferedRowsAcrossChunks) {
  columnar::TableAppender appender;
  for (int chunk = 0; chunk < 3; ++chunk) {
    columnar::Table t;
    columnar::DoubleColumn d;
    for (int i = 0; i <= chunk; ++i) columnar::appendDouble(d, i);
    t.columns.push_back({"v", std::move(d)});
    t.rows = static_cast<std::size_t>(chunk + 1);
    appender.append(t);
  }
  EXPECT_EQ(appender.stats().inputs, 3u);
  EXPECT_EQ(appender.stats().rows, 6u);
  EXPECT_EQ(appender.stats().peakBufferedRows, 3u);
  const columnar::Table out = appender.take();
  EXPECT_EQ(out.rows, 6u);
}

TEST(ConcatTables, TranslatesDictionaryCodesAcrossInputs) {
  // The same label set encoded in different orders must decode the same.
  columnar::Table a;
  {
    columnar::StringColumn s;
    columnar::appendString(s, "one");
    columnar::appendString(s, "two");
    a.columns.push_back({"k", std::move(s)});
    a.rows = 2;
  }
  columnar::Table b;
  {
    columnar::StringColumn s;
    columnar::appendString(s, "two");  // code 0 here, code 1 in `a`
    columnar::appendString(s, "one");
    b.columns.push_back({"k", std::move(s)});
    b.rows = 2;
  }
  const columnar::Table* inputs[] = {&a, &b};
  const columnar::Table merged = columnar::concatTables(inputs);
  const auto& decoded = merged.columns[0].strs().materialize();
  EXPECT_EQ(decoded, (std::vector<std::string>{"one", "two", "two", "one"}));
}

// ---- colframe cache -----------------------------------------------------

/// A three-row table shaped like a cached perflog frame, with a numeric
/// column that holds nulls (`ref`) and string columns that hold nulls
/// (`x:num_tasks`, `x:array_size`), so the colfile validity round trip is
/// exercised for both column kinds.
columnar::Table colframeFixture() {
  columnar::StringColumn ts, system, tasks, arraySize;
  columnar::DoubleColumn value, ref;
  for (int i = 0; i < 3; ++i) {
    columnar::appendString(ts, std::to_string(100 + i));
    columnar::appendString(system, i < 2 ? "archer2" : "csd3");
    columnar::appendDouble(value, 100.0 + i);
    if (i == 1) {
      columnar::appendDouble(ref, 105.0);  // ref only on one row
    } else {
      columnar::appendDoubleNull(ref);
    }
    if (i != 2) {
      columnar::appendString(tasks, std::to_string(4 * (i + 1)));
      columnar::appendStringNull(arraySize);
    } else {
      columnar::appendStringNull(tasks);
      columnar::appendString(arraySize, "1048576");
    }
  }
  columnar::Table table;
  table.rows = 3;
  table.columns.push_back({"ts", std::move(ts)});
  table.columns.push_back({"system", std::move(system)});
  table.columns.push_back({"value", std::move(value)});
  table.columns.push_back({"ref", std::move(ref)});
  table.columns.push_back({"x:array_size", std::move(arraySize)});
  table.columns.push_back({"x:num_tasks", std::move(tasks)});
  return table;
}

TEST(ColFrame, RoundTripsThroughTheObjectStore) {
  store::ObjectStore store(tempPath("colframe_rt"));
  const columnar::Table table = colframeFixture();
  ASSERT_EQ(table.find("ref")->doubles().nullCount(), 2u);
  ASSERT_EQ(table.find("x:num_tasks")->strs().nullCount(), 1u);
  ASSERT_EQ(table.find("x:array_size")->strs().nullCount(), 2u);
  const std::string footer = columnar::writeColFrame(store, table);
  const auto loaded = columnar::readColFrame(store, footer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->columns.size(), table.columns.size());
  EXPECT_EQ(loaded->rows, table.rows);
  for (std::size_t c = 0; c < table.columns.size(); ++c) {
    SCOPED_TRACE(table.columns[c].name);
    EXPECT_EQ(loaded->columns[c].name, table.columns[c].name);
    ASSERT_EQ(loaded->columns[c].isNumeric(), table.columns[c].isNumeric());
    if (table.columns[c].isNumeric()) {
      const auto& want = table.columns[c].doubles();
      const auto& got = loaded->columns[c].doubles();
      ASSERT_EQ(got.values.size(), want.values.size());
      EXPECT_EQ(got.nullCount(), want.nullCount());
      for (std::size_t i = 0; i < want.values.size(); ++i) {
        if (!want.validity.valid(i)) {
          EXPECT_FALSE(got.validity.valid(i));
        } else {
          EXPECT_DOUBLE_EQ(got.values[i], want.values[i]);
        }
      }
    } else {
      EXPECT_EQ(loaded->columns[c].strs().materialize(),
                table.columns[c].strs().materialize());
      EXPECT_EQ(loaded->columns[c].strs().nullCount(),
                table.columns[c].strs().nullCount());
    }
  }
}

TEST(ColFrame, WriteIsDeterministic) {
  store::ObjectStore a(tempPath("colframe_det_a"));
  store::ObjectStore b(tempPath("colframe_det_b"));
  EXPECT_EQ(columnar::writeColFrame(a, colframeFixture()),
            columnar::writeColFrame(b, colframeFixture()));
}

TEST(ColFrame, AttachesFooterZoneMapsOnRead) {
  store::ObjectStore store(tempPath("colframe_zones"));
  const std::string footer =
      columnar::writeColFrame(store, colframeFixture());
  const auto loaded = columnar::readColFrame(store, footer);
  ASSERT_TRUE(loaded.has_value());
  const columnar::Column* value = loaded->find("value");
  ASSERT_NE(value, nullptr);
  const auto& zones = value->doubles().zones();
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_EQ(zones[0].count, 3u);
  EXPECT_DOUBLE_EQ(zones[0].min, 100.0);
  EXPECT_DOUBLE_EQ(zones[0].max, 102.0);
}

TEST(ColFrame, CorruptColumnBlobReadsAsAbsent) {
  store::ObjectStore store(tempPath("colframe_corrupt"));
  const columnar::Table table = colframeFixture();
  const std::string footer = columnar::writeColFrame(store, table);

  // Truncate every object except the footer; the verified get must fail
  // for whichever column blob is touched first.
  const auto footerBytes = store.get(footer);
  ASSERT_TRUE(footerBytes.has_value());
  std::size_t corrupted = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(store.dir()) / "objects")) {
    if (entry.path().filename() == footer) continue;
    std::ofstream(entry.path(), std::ios::trunc) << "garbage";
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0u);
  EXPECT_FALSE(columnar::readColFrame(store, footer).has_value());
}

TEST(ColFrame, MissingFooterReadsAsAbsent) {
  store::ObjectStore store(tempPath("colframe_missing"));
  EXPECT_FALSE(
      columnar::readColFrame(store, "0123456789abcdef").has_value());
}

// ---- perflog cache + assimilation ---------------------------------------

std::string writePerflog(const std::string& leaf,
                         const std::vector<PerfLogEntry>& entries) {
  const std::string path = tempPath(leaf);
  std::ofstream out(path, std::ios::trunc);
  for (const PerfLogEntry& entry : entries) out << entry.serialize() << "\n";
  return path;
}

PerfLogEntry simpleEntry(const std::string& stamp, const std::string& system,
                         double value) {
  PerfLogEntry entry;
  entry.timestamp = stamp;
  entry.system = system;
  entry.partition = "standard";
  entry.environ = "gcc@11.2.0";
  entry.testName = "stream";
  entry.spec = "stream@1.0";
  entry.specHash = "h";
  entry.binaryId = "b";
  entry.jobId = "j";
  entry.fomName = "triad";
  entry.value = value;
  entry.unit = Unit::kSeconds;
  entry.result = "pass";
  return entry;
}

TEST(FrameCache, ConvertsOnceThenHitsByContentHash) {
  const std::string path = writePerflog(
      "cache_hit.log", {simpleEntry("1", "archer2", 1.0),
                        simpleEntry("2", "archer2", 2.0)});
  store::ObjectStore store(tempPath("cache_hit_store"));

  const FrameCacheResult first = loadOrConvertPerflog(store, path);
  EXPECT_FALSE(first.cacheHit);
  EXPECT_EQ(first.table.rows, 2u);

  const FrameCacheResult second = loadOrConvertPerflog(store, path);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(second.table.rows, 2u);
  EXPECT_EQ(second.table.columns.size(), 9u);  // the analysis frame
  EXPECT_EQ(analysisFrameFromTable(second.table).toCsv(),
            perflogToDataFrame(PerfLog::readFile(path)).toCsv());
}

TEST(FrameCache, ChangedFileMissesTheOldEntry) {
  const std::string path =
      writePerflog("cache_change.log", {simpleEntry("1", "archer2", 1.0)});
  store::ObjectStore store(tempPath("cache_change_store"));
  (void)loadOrConvertPerflog(store, path);

  std::ofstream(path, std::ios::app)
      << simpleEntry("2", "csd3", 2.0).serialize() << "\n";
  const FrameCacheResult reread = loadOrConvertPerflog(store, path);
  EXPECT_FALSE(reread.cacheHit);  // new content hash, new conversion
  EXPECT_EQ(reread.table.rows, 2u);
}

TEST(FrameCache, CorruptCacheDegradesToReparse) {
  const std::string path =
      writePerflog("cache_corrupt.log", {simpleEntry("1", "archer2", 1.0)});
  store::ObjectStore store(tempPath("cache_corrupt_store"));
  (void)loadOrConvertPerflog(store, path);

  // Smash every cached object; the verified read fails and the loader
  // must fall back to parsing the perflog again.
  for (const auto& entry :
       fs::directory_iterator(fs::path(store.dir()) / "objects")) {
    std::ofstream(entry.path(), std::ios::trunc) << "garbage";
  }
  const FrameCacheResult reread = loadOrConvertPerflog(store, path);
  EXPECT_FALSE(reread.cacheHit);
  EXPECT_EQ(reread.table.rows, 1u);
  EXPECT_EQ(analysisFrameFromTable(reread.table).toCsv(),
            perflogToDataFrame(PerfLog::readFile(path)).toCsv());
}

TEST(FrameCache, OlderCacheWithExtraColumnsProjectsToTheSameCsv) {
  // Earlier caches stored every perflog field plus one `x:<key>` column
  // per extras key, in an order where the analysis columns interleave
  // with the rest.  The projection must still read the same frame.
  std::vector<PerfLogEntry> entries = {simpleEntry("T0", "archer2", 1.0),
                                       simpleEntry("T1", "csd3", 2.0)};
  entries[0].extras["num_tasks"] = "4";
  const DataFrame direct = perflogToDataFrame(entries);

  columnar::Table old;
  old.rows = entries.size();
  columnar::StringColumn ts, tasks;
  for (const PerfLogEntry& entry : entries) {
    columnar::appendString(ts, entry.timestamp);
    const auto it = entry.extras.find("num_tasks");
    if (it != entry.extras.end()) {
      columnar::appendString(tasks, it->second);
    } else {
      columnar::appendStringNull(tasks);
    }
  }
  old.columns.push_back({"ts", std::move(ts)});
  for (const columnar::Column& col : direct.table().columns) {
    old.columns.push_back(col);
  }
  old.columns.push_back({"x:num_tasks", std::move(tasks)});
  std::swap(old.columns[1], old.columns[9]);  // value before system

  store::ObjectStore store(tempPath("old_cache_store"));
  const auto cached =
      columnar::readColFrame(store, columnar::writeColFrame(store, old));
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(analysisFrameFromTable(*cached).toCsv(), direct.toCsv());
}

TEST(AssimilatePerflogs, ConcatenatesFilesInTheOrderGiven) {
  // rebench stamps runs T0, T1, ...; assimilation keeps each file's rows
  // in file order and the files in argument order, whatever the stamps.
  std::vector<PerfLogEntry> archer2, csd3;
  for (int i = 0; i < 12; ++i) {
    const std::string stamp = std::string("T").append(std::to_string(i));
    archer2.push_back(simpleEntry(stamp, "archer2", i));
    csd3.push_back(simpleEntry(stamp, "csd3", 100 + i));
  }
  const std::vector<std::string> paths = {
      writePerflog("assimilate_a.log", archer2),
      writePerflog("assimilate_c.log", csd3)};
  const DataFrame frame = assimilatePerflogs(paths);
  ASSERT_EQ(frame.rowCount(), 24u);
  const auto& systems = frame.strings("system");
  const auto& values = frame.numeric("value");
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(systems[i], i < 12 ? "archer2" : "csd3") << i;
    EXPECT_EQ(values[i], static_cast<double>(i < 12 ? i : 88 + i)) << i;
  }
}

TEST(AssimilatePerflogs, UnreadableInputThrows) {
  const std::vector<std::string> paths = {tempPath("assimilate_nope.log")};
  EXPECT_THROW(assimilatePerflogs(paths), Error);
}

// ---- observability spans ------------------------------------------------

TEST(ColumnarSpans, KernelSpansCarryTheLintContract) {
  DataFrame frame;
  frame.addStrings("system", {"a", "a", "b"});
  frame.addNumeric("value", {1.0, 2.0, 3.0});
  obs::Tracer tracer;
  frame.setTracer(&tracer);

  const std::vector<std::string> keys = {"system"};
  (void)frame.groupBy(keys, "value", Agg::kMean);
  (void)frame.filterEquals("system", "a");
  (void)frame.sortBy("value", false);
  (void)frame.describe();

  const obs::TraceFile trace = obs::parseTraceJsonl(tracer.toJsonl());
  EXPECT_TRUE(obs::lintTrace(trace).empty());
  std::size_t kernelSpans = 0;
  for (const auto& span : trace.spans) {
    if (span.name != "postproc.columnar.kernel") continue;
    ++kernelSpans;
    EXPECT_NE(span.attrs.find("kernel"), span.attrs.end());
    EXPECT_NE(span.attrs.find("rows"), span.attrs.end());
    EXPECT_NE(span.attrs.find("skipped_chunks"), span.attrs.end());
  }
  EXPECT_EQ(kernelSpans, 4u);
}

TEST(ColumnarSpans, AssimilateAndConvertSpansLintClean) {
  const std::string a =
      writePerflog("span_a.log", {simpleEntry("1", "archer2", 1.0)});
  const std::string b =
      writePerflog("span_b.log", {simpleEntry("2", "csd3", 2.0)});
  obs::Tracer tracer;
  const std::vector<std::string> paths = {a, b};
  const DataFrame merged = assimilatePerflogs(paths, &tracer);
  EXPECT_EQ(merged.rowCount(), 2u);

  store::ObjectStore store(tempPath("span_store"));
  (void)loadOrConvertPerflog(store, a, &tracer);  // converted
  (void)loadOrConvertPerflog(store, a, &tracer);  // hit

  const obs::TraceFile trace = obs::parseTraceJsonl(tracer.toJsonl());
  EXPECT_TRUE(obs::lintTrace(trace).empty());
  std::size_t mergeSpans = 0, convertSpans = 0;
  std::vector<std::string> outcomes;
  for (const auto& span : trace.spans) {
    if (span.name == "postproc.columnar.merge") {
      ++mergeSpans;
      EXPECT_EQ(span.attrs.at("inputs"), "2");
      EXPECT_EQ(span.attrs.at("rows"), "2");
    } else if (span.name == "postproc.columnar.convert") {
      ++convertSpans;
      outcomes.push_back(span.attrs.at("outcome"));
    }
  }
  EXPECT_EQ(mergeSpans, 1u);
  EXPECT_EQ(convertSpans, 2u);
  EXPECT_EQ(outcomes, (std::vector<std::string>{"converted", "hit"}));
}

}  // namespace
}  // namespace rebench
