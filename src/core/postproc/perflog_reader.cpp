#include "core/postproc/perflog_reader.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/fault/journal.hpp"
#include "core/obs/trace.hpp"
#include "core/postproc/columnar/colfile.hpp"
#include "core/postproc/columnar/merge.hpp"
#include "core/util/error.hpp"

namespace rebench {

namespace {

std::size_t chunksOf(std::size_t rows) {
  return (rows + columnar::kChunkRows - 1) / columnar::kChunkRows;
}

void emitConvertSpan(obs::Tracer* tracer, const columnar::Table& table,
                     std::string_view outcome) {
  if (tracer == nullptr) return;
  obs::ScopedSpan span(tracer, "postproc.columnar.convert");
  span.attr("rows", std::to_string(table.rows));
  span.attr("chunks", std::to_string(chunksOf(table.rows)));
  span.attr("columns", std::to_string(table.columns.size()));
  span.attr("outcome", std::string(outcome));
}

}  // namespace

DataFrame perflogToDataFrame(std::span<const PerfLogEntry> entries) {
  DataFrame::StringColumn system, partition, environ, test, spec, fom, unit,
      result;
  DataFrame::NumericColumn value;
  for (const PerfLogEntry& entry : entries) {
    system.push_back(entry.system);
    partition.push_back(entry.partition);
    environ.push_back(entry.environ);
    test.push_back(entry.testName);
    spec.push_back(entry.spec);
    fom.push_back(entry.fomName);
    unit.push_back(std::string(unitName(entry.unit)));
    result.push_back(entry.result);
    value.push_back(entry.value);
  }
  DataFrame frame;
  frame.addStrings("system", std::move(system));
  frame.addStrings("partition", std::move(partition));
  frame.addStrings("environ", std::move(environ));
  frame.addStrings("test", std::move(test));
  frame.addStrings("spec", std::move(spec));
  frame.addStrings("fom", std::move(fom));
  frame.addStrings("unit", std::move(unit));
  frame.addStrings("result", std::move(result));
  frame.addNumeric("value", std::move(value));
  return frame;
}

DataFrame assimilatePerflogs(std::span<const std::string> paths,
                             obs::Tracer* tracer) {
  columnar::TableAppender appender;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) throw Error("cannot read perflog file '" + path + "'");
    std::vector<PerfLogEntry> batch;
    batch.reserve(std::min(countPerflogLines(path), columnar::kChunkRows));
    bool emitted = false;
    forEachPerflogLine(in, [&](std::string_view line) {
      batch.push_back(PerfLogEntry::parse(line));
      if (batch.size() == columnar::kChunkRows) {
        appender.append(perflogToDataFrame(batch).table());
        batch.clear();
        emitted = true;
      }
    });
    // An empty shard still contributes its (empty) 9-column schema, like
    // the old per-file concat did.
    if (!batch.empty() || !emitted) {
      appender.append(perflogToDataFrame(batch).table());
    }
  }
  emitMergeSpan(tracer, appender.stats());
  return DataFrame::fromTable(appender.take());
}

DataFrame analysisFrameFromTable(const columnar::Table& table) {
  static constexpr std::string_view kAnalysisColumns[] = {
      "system", "partition", "environ", "test", "spec",
      "fom",    "unit",      "result",  "value"};
  columnar::Table out;
  out.rows = table.rows;
  for (const std::string_view name : kAnalysisColumns) {
    const columnar::Column* col = table.find(name);
    REBENCH_REQUIRE(col != nullptr);
    out.columns.push_back(*col);
  }
  return DataFrame::fromTable(std::move(out));
}

FrameCacheResult loadOrConvertPerflog(store::ObjectStore& store,
                                      const std::string& path,
                                      obs::Tracer* tracer) {
  std::optional<std::string> read = readWholeFile(path);
  if (!read) throw Error("cannot read perflog file '" + path + "'");
  const std::string refName =
      "colframe/" + store::ObjectStore::hashBytes(*read);

  FrameCacheResult out;
  if (const std::optional<std::string> footer = store.ref(refName)) {
    if (std::optional<columnar::Table> cached =
            columnar::readColFrame(store, *footer)) {
      out.table = std::move(*cached);
      out.cacheHit = true;
      emitConvertSpan(tracer, out.table, "hit");
      return out;
    }
  }

  // Parse the bytes already read and hashed, never a second read of a
  // file that may have changed since; the stream takes them by move.
  std::vector<PerfLogEntry> entries;
  const auto newlines = std::count(read->begin(), read->end(), '\n');
  entries.reserve(static_cast<std::size_t>(newlines) + 1);
  std::istringstream in(std::move(*read));
  forEachPerflogLine(in, [&](std::string_view line) {
    entries.push_back(PerfLogEntry::parse(line));
  });
  out.table = perflogToDataFrame(entries).table();
  store.setRef(refName, columnar::writeColFrame(store, out.table));
  emitConvertSpan(tracer, out.table, "converted");
  return out;
}

}  // namespace rebench
