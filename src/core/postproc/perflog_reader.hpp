// Bridges perflogs into DataFrames (the "assimilate" step of Principle 6).
//
// One entries-to-columns builder, perflogToDataFrame, makes the 9-column
// analysis frame (system/partition/environ/test/spec/fom/unit/result
// strings + value); everything else goes through it:
//   * assimilatePerflogs — streams each file in kChunkRows slices through
//     a TableAppender and concatenates the files in the order given, so a
//     million-row shard never holds more than one chunk of parsed rows in
//     memory.
//   * the colframe cache — loadOrConvertPerflog keys the analysis frame's
//     columnar form by the perflog file's content hash in the ObjectStore;
//     analysisFrameFromTable projects a cached table back to the 9 columns
//     (older caches hold extra columns, which the projection drops).
#pragma once

#include <span>
#include <string>

#include "core/framework/perflog.hpp"
#include "core/postproc/dataframe.hpp"
#include "core/store/object_store.hpp"

namespace rebench::obs {
class Tracer;
}  // namespace rebench::obs

namespace rebench {

/// Converts parsed perflog entries into a frame with columns:
///   system, partition, environ, test, spec, fom, unit, result (strings)
///   and value (numeric).
DataFrame perflogToDataFrame(std::span<const PerfLogEntry> entries);

/// Reads several perflog files (one per system, as generated on isolated
/// machines) and concatenates them, in the order given, into one analysis
/// frame.  Streaming: at most one kChunkRows slice of parsed rows is
/// buffered per file.  With a tracer, emits a `postproc.columnar.merge`
/// span.
DataFrame assimilatePerflogs(std::span<const std::string> paths,
                             obs::Tracer* tracer = nullptr);

/// The 9-column analysis frame as a cheap projection of a cached table
/// (codes copied, dictionaries shared — no strings touched).
DataFrame analysisFrameFromTable(const columnar::Table& table);

struct FrameCacheResult {
  columnar::Table table;  // project with analysisFrameFromTable
  bool cacheHit = false;
};

/// Content-hash-keyed colframe cache: hashes the perflog file's bytes,
/// looks up ref `colframe/<hash>` in the store and verifies the cached
/// frame; on miss (or corruption, which reads as a miss) parses the file,
/// writes the analysis frame's table back and installs the ref.  With a
/// tracer, emits a `postproc.columnar.convert` span (rows, chunks,
/// columns, outcome=hit|converted).
FrameCacheResult loadOrConvertPerflog(store::ObjectStore& store,
                                      const std::string& path,
                                      obs::Tracer* tracer = nullptr);

}  // namespace rebench
