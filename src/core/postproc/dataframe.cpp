#include "core/postproc/dataframe.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "core/obs/trace.hpp"
#include "core/postproc/columnar/merge.hpp"
#include "core/service/journal.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

void emitKernelSpan(obs::Tracer* tracer, std::string_view kernel,
                    const columnar::KernelStats& stats) {
  if (tracer == nullptr) return;
  obs::ScopedSpan span(tracer, "postproc.columnar.kernel");
  span.attr("kernel", std::string(kernel));
  span.attr("rows", std::to_string(stats.rows));
  span.attr("chunks", std::to_string(stats.chunks));
  span.attr("skipped_chunks", std::to_string(stats.skippedChunks));
}

}  // namespace

void DataFrame::addNumeric(std::string name, NumericColumn values) {
  if (!table_.columns.empty() && values.size() != table_.rows) {
    throw Error("column '" + name + "' has " + std::to_string(values.size()) +
                " rows, frame has " + std::to_string(table_.rows));
  }
  table_.rows = values.size();
  columnar::DoubleColumn col;
  col.values = std::move(values);
  col.validity.appendRun(col.values.size(), true);
  table_.columns.push_back({std::move(name), std::move(col)});
}

void DataFrame::addStrings(std::string name, StringColumn values) {
  if (!table_.columns.empty() && values.size() != table_.rows) {
    throw Error("column '" + name + "' has " + std::to_string(values.size()) +
                " rows, frame has " + std::to_string(table_.rows));
  }
  table_.rows = values.size();
  columnar::StringColumn col;
  col.codes.reserve(values.size());
  for (const std::string& value : values) {
    col.codes.push_back(col.dict->encode(value));
  }
  table_.columns.push_back({std::move(name), std::move(col)});
}

void DataFrame::addNumericWithNulls(std::string name, NumericColumn values,
                                    const std::vector<bool>& valid) {
  REBENCH_REQUIRE(values.size() == valid.size());
  if (!table_.columns.empty() && values.size() != table_.rows) {
    throw Error("column '" + name + "' has " + std::to_string(values.size()) +
                " rows, frame has " + std::to_string(table_.rows));
  }
  table_.rows = values.size();
  columnar::DoubleColumn col;
  col.values = std::move(values);
  for (std::size_t i = 0; i < col.values.size(); ++i) {
    if (!valid[i]) {
      col.values[i] = std::numeric_limits<double>::quiet_NaN();
    }
    col.validity.append(valid[i]);
  }
  table_.columns.push_back({std::move(name), std::move(col)});
}

bool DataFrame::hasColumn(std::string_view name) const {
  return table_.find(name) != nullptr;
}

const columnar::Column& DataFrame::columnRef(std::string_view name) const {
  const columnar::Column* col = table_.find(name);
  if (col == nullptr) {
    throw NotFoundError("no column '" + std::string(name) + "'");
  }
  return *col;
}

const columnar::DoubleColumn& DataFrame::numericCol(
    std::string_view name) const {
  const columnar::Column& col = columnRef(name);
  if (!col.isNumeric()) {
    throw Error("column '" + std::string(name) + "' is not numeric");
  }
  return col.doubles();
}

const columnar::StringColumn& DataFrame::stringCol(
    std::string_view name) const {
  const columnar::Column& col = columnRef(name);
  if (col.isNumeric()) {
    throw Error("column '" + std::string(name) + "' is not a string column");
  }
  return col.strs();
}

bool DataFrame::isNumeric(std::string_view name) const {
  return columnRef(name).isNumeric();
}

std::vector<std::string> DataFrame::columnNames() const {
  return table_.columnNames();
}

const DataFrame::NumericColumn& DataFrame::numeric(
    std::string_view name) const {
  return numericCol(name).values;
}

const DataFrame::StringColumn& DataFrame::strings(
    std::string_view name) const {
  return stringCol(name).materialize();
}

std::string DataFrame::cellText(std::string_view name,
                                std::size_t row) const {
  REBENCH_REQUIRE(row < table_.rows);
  const columnar::Column& col = columnRef(name);
  if (col.isNumeric()) {
    return str::fixed(col.doubles().values[row], 6);
  }
  const std::uint32_t code = col.strs().codes[row];
  return code == columnar::kNullCode ? std::string()
                                     : col.strs().dict->at(code);
}

DataFrame DataFrame::wrap(columnar::Table table) const {
  DataFrame out;
  out.table_ = std::move(table);
  out.tracer_ = tracer_;
  return out;
}

DataFrame DataFrame::filter(
    const std::function<bool(std::size_t)>& rowPredicate) const {
  columnar::Arena arena;
  const auto selection =
      columnar::selectPredicate(table_.rows, rowPredicate, arena);
  return wrap(columnar::gather(table_, selection));
}

DataFrame DataFrame::filterEquals(std::string_view column,
                                  std::string_view value) const {
  const columnar::StringColumn& col = stringCol(column);
  columnar::Arena arena;
  columnar::KernelStats stats;
  const auto selection = columnar::selectEquals(col, value, arena, &stats);
  DataFrame out = wrap(columnar::gather(table_, selection));
  emitKernelSpan(tracer_, "filter_equals", stats);
  return out;
}

DataFrame DataFrame::filterRange(std::string_view column, double lo,
                                 double hi) const {
  const columnar::DoubleColumn& col = numericCol(column);
  columnar::Arena arena;
  columnar::KernelStats stats;
  const auto selection = columnar::selectRange(col, lo, hi, arena, &stats);
  DataFrame out = wrap(columnar::gather(table_, selection));
  emitKernelSpan(tracer_, "filter_range", stats);
  return out;
}

DataFrame DataFrame::selectColumns(std::span<const std::string> names) const {
  columnar::Table out;
  for (const std::string& name : names) {
    out.columns.push_back(columnRef(name));
  }
  out.rows = table_.rows;
  return wrap(std::move(out));
}

DataFrame DataFrame::sortBy(std::string_view column, bool ascending) const {
  const columnar::Column& col = columnRef(column);
  columnar::KernelStats stats;
  stats.rows = table_.rows;
  stats.chunks =
      (table_.rows + columnar::kChunkRows - 1) / columnar::kChunkRows;
  const std::vector<std::uint32_t> order =
      columnar::sortOrder(col, table_.rows, ascending);
  DataFrame out = wrap(columnar::gather(table_, order));
  emitKernelSpan(tracer_, "sort", stats);
  return out;
}

DataFrame DataFrame::concat(std::span<const DataFrame> frames) {
  if (frames.empty()) return {};
  std::vector<const columnar::Table*> tables;
  tables.reserve(frames.size());
  obs::Tracer* tracer = nullptr;
  for (const DataFrame& frame : frames) {
    tables.push_back(&frame.table_);
    if (tracer == nullptr) tracer = frame.tracer_;
  }
  columnar::ConcatStats stats;
  columnar::Table merged = columnar::concatTables(tables, &stats);
  emitMergeSpan(tracer, stats);
  DataFrame out;
  out.table_ = std::move(merged);
  out.tracer_ = tracer;
  return out;
}

DataFrame DataFrame::groupBy(std::span<const std::string> keyColumns,
                             std::string_view valueColumn, Agg agg) const {
  // Validate in the row engine's order: value column first, then keys.
  (void)numericCol(valueColumn);
  for (const std::string& key : keyColumns) (void)stringCol(key);
  columnar::KernelStats stats;
  columnar::Table out =
      columnar::groupAggregate(table_, keyColumns, valueColumn, agg, &stats);
  DataFrame result = wrap(std::move(out));
  emitKernelSpan(tracer_, "group_by", stats);
  return result;
}

DataFrame DataFrame::groupPercentiles(
    std::span<const std::string> keyColumns, std::string_view valueColumn,
    std::span<const double> percentiles) const {
  (void)numericCol(valueColumn);
  for (const std::string& key : keyColumns) (void)stringCol(key);
  std::vector<std::string> labels;
  labels.reserve(percentiles.size());
  for (const double p : percentiles) {
    labels.push_back(std::string("p").append(service::formatExact(p)));
  }
  columnar::KernelStats stats;
  columnar::Table out = columnar::groupPercentilesKernel(
      table_, keyColumns, valueColumn, percentiles, labels, &stats);
  DataFrame result = wrap(std::move(out));
  emitKernelSpan(tracer_, "group_percentiles", stats);
  return result;
}

PivotTable DataFrame::pivot(std::string_view rowKey, std::string_view colKey,
                            std::string_view valueColumn, Agg agg) const {
  const columnar::StringColumn& rows = stringCol(rowKey);
  const columnar::StringColumn& cols = stringCol(colKey);
  const columnar::DoubleColumn& values = numericCol(valueColumn);
  columnar::KernelStats stats;
  columnar::PivotCells cells =
      columnar::pivotAggregate(rows, cols, values, agg, &stats);
  emitKernelSpan(tracer_, "pivot", stats);
  PivotTable table;
  table.rowLabels = std::move(cells.rowLabels);
  table.colLabels = std::move(cells.colLabels);
  table.cells = std::move(cells.cells);
  return table;
}

DataFrame DataFrame::describe() const {
  columnar::KernelStats stats;
  columnar::Table out = columnar::describeTable(table_, &stats);
  DataFrame result = wrap(std::move(out));
  emitKernelSpan(tracer_, "describe", stats);
  return result;
}

std::string DataFrame::toCsv() const {
  std::string out = str::join(columnNames(), ",") + "\n";
  // The row engine rendered cells via name lookup, so a duplicated column
  // name rendered its first occurrence each time; precompute that mapping.
  std::vector<const columnar::Column*> source;
  source.reserve(table_.columns.size());
  for (const columnar::Column& col : table_.columns) {
    source.push_back(table_.find(col.name));
  }
  for (std::size_t i = 0; i < table_.rows; ++i) {
    for (std::size_t c = 0; c < source.size(); ++c) {
      if (c != 0) out += ',';
      const columnar::Column& col = *source[c];
      std::string cell;
      if (col.isNumeric()) {
        cell = str::fixed(col.doubles().values[i], 6);
      } else {
        const std::uint32_t code = col.strs().codes[i];
        if (code != columnar::kNullCode) cell = col.strs().dict->at(code);
      }
      if (cell.find(',') != std::string::npos ||
          cell.find('"') != std::string::npos) {
        cell = '"' + str::replaceAll(cell, "\"", "\"\"") + '"';
      }
      out += cell;
    }
    out += '\n';
  }
  return out;
}

DataFrame DataFrame::fromCsv(const std::string& text) {
  std::vector<std::string> lines;
  for (const std::string& line : str::split(text, '\n')) {
    if (!str::trim(line).empty()) lines.push_back(line);
  }
  if (lines.empty()) return {};

  // Minimal CSV: supports quoted cells with doubled quotes.
  auto parseLine = [](const std::string& line) {
    std::vector<std::string> cells;
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (quoted) {
        if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else if (c == '"') {
          quoted = false;
        } else {
          cell += c;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == ',') {
        cells.push_back(std::move(cell));
        cell.clear();
      } else {
        cell += c;
      }
    }
    cells.push_back(std::move(cell));
    return cells;
  };

  const std::vector<std::string> header = parseLine(lines[0]);
  std::vector<columnar::TaggedColumnBuilder> builders(header.size());
  for (std::size_t r = 1; r < lines.size(); ++r) {
    std::vector<std::string> cells = parseLine(lines[r]);
    if (cells.size() != header.size()) {
      throw ParseError("CSV row " + std::to_string(r) + " has " +
                       std::to_string(cells.size()) + " cells, expected " +
                       std::to_string(header.size()));
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      builders[c].add(std::move(cells[c]));
    }
  }

  DataFrame out;
  out.table_.rows = lines.size() - 1;
  for (std::size_t c = 0; c < header.size(); ++c) {
    columnar::Column col;
    col.name = header[c];
    if (builders[c].numeric()) {
      col.data = builders[c].takeNumeric();
    } else {
      col.data = builders[c].takeStrings();
    }
    out.table_.columns.push_back(std::move(col));
  }
  return out;
}

DataFrame DataFrame::fromTable(columnar::Table table) {
  DataFrame out;
  out.table_ = std::move(table);
  return out;
}

void emitMergeSpan(obs::Tracer* tracer, const columnar::ConcatStats& stats) {
  if (tracer == nullptr) return;
  obs::ScopedSpan span(tracer, "postproc.columnar.merge");
  span.attr("inputs", std::to_string(stats.inputs));
  span.attr("rows", std::to_string(stats.rows));
  span.attr("chunks", std::to_string(stats.chunks));
  span.attr("peak_buffered_rows", std::to_string(stats.peakBufferedRows));
}

}  // namespace rebench
