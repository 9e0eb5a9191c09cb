// trace_lint — validates a rebench trace JSONL file.
//
//   $ trace_lint trace.jsonl
//   trace OK: 9 spans, 4 events, 12 metrics
//   $ trace_lint trace.jsonl --store DIR
//   trace OK: ...
//   history OK: 6 record(s) in 3 segment(s)
//
// Exit 0 when the trace satisfies every structural invariant the writer
// guarantees (known schema version, monotone timestamps, parented spans,
// no orphan events) and every record contract in the kRecordContracts
// table of src/core/obs/trace_reader.cpp; exit 1 with one message per
// violation otherwise.
// With --store DIR the store's history chain is also checked: every
// record must cite a campaign manifest that exists under DIR/manifests.
// ctest runs this over the trace the quickstart example produces.
#include <filesystem>
#include <iostream>
#include <string>

#include "core/history/history.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"

namespace {

/// Walks the store's history chain and verifies manifest references.
/// Returns the number of problems found (printed to stderr).
int lintHistory(const std::string& storeDir) {
  namespace fs = std::filesystem;
  rebench::store::ObjectStore store(storeDir);
  rebench::history::HistoryIndex index(store);
  const auto records = index.readAll();
  int problems = 0;
  for (const rebench::history::HistoryRecord& record : records) {
    if (record.manifestHash.empty()) {
      std::cerr << "trace_lint: history record seq " << record.seq
                << " (" << record.test << " @ " << record.target
                << ") cites no manifest\n";
      ++problems;
      continue;
    }
    const fs::path manifest = fs::path(storeDir) / "manifests" /
                              ("campaign-" + record.manifestHash + ".json");
    if (!fs::exists(manifest)) {
      std::cerr << "trace_lint: history record seq " << record.seq
                << " cites missing manifest '" << manifest.string() << "'\n";
      ++problems;
    }
  }
  if (problems == 0) {
    std::cout << "history OK: " << records.size() << " record(s) in "
              << index.segmentCount() << " segment(s)\n";
  }
  return problems;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tracePath;
  std::string storeDir;
  bool usageError = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store" && i + 1 < argc) {
      storeDir = argv[++i];
    } else if (tracePath.empty()) {
      tracePath = arg;
    } else {
      usageError = true;
      break;
    }
  }
  if (tracePath.empty() || usageError) {
    std::cerr << "usage: trace_lint <trace.jsonl> [--store DIR]\n";
    return 2;
  }
  try {
    const rebench::obs::TraceFile trace =
        rebench::obs::readTraceFile(tracePath);
    const std::vector<std::string> issues = rebench::obs::lintTrace(trace);
    for (const std::string& issue : issues) {
      std::cerr << "trace_lint: " << issue << "\n";
    }
    int problems = static_cast<int>(issues.size());
    if (problems == 0) {
      const std::size_t metrics = trace.counters.size() +
                                  trace.gauges.size() +
                                  trace.histograms.size();
      std::cout << "trace OK: " << trace.spans.size() << " spans, "
                << trace.events.size() << " events, " << metrics
                << " metrics\n";
    }
    if (!storeDir.empty()) problems += lintHistory(storeDir);
    return problems == 0 ? 0 : 1;
  } catch (const rebench::Error& e) {
    std::cerr << "trace_lint: " << e.what() << "\n";
    return 1;
  }
}
