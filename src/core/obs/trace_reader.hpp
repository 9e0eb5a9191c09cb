// Trace JSONL reader and validator (rebench::obs).
//
// Loads a trace written by Tracer::writeJsonl back into typed records —
// the programmatic-assimilation half of the observability story (the
// Principle-6 analogue for traces).  `lintTrace` checks the structural
// invariants the writer guarantees (schema version, monotone timestamps,
// parented spans, no orphans); `tools/trace_lint` fronts it as a CLI and
// ctest gate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/obs/trace.hpp"

namespace rebench::obs {

/// A fully-parsed trace file.
struct TraceFile {
  std::string schema;     // e.g. "rebench.trace/1"
  std::string clockKind;  // "sim" | "wall"

  std::vector<SpanRecord> spans;    // file order (= span end order)
  std::vector<EventRecord> events;  // file order (= occurrence order)

  struct GaugeDump {
    double value = 0.0;
    double max = 0.0;
  };
  struct HistogramDump {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeDump> gauges;
  std::map<std::string, HistogramDump> histograms;

  /// (kind, ordering timestamp) per span/event line, in file order — the
  /// sequence the monotonicity lint runs over.  Span lines order by their
  /// end time (they are emitted when the span ends).
  struct TimelineEntry {
    std::string kind;
    double time = 0.0;
  };
  std::vector<TimelineEntry> timeline;
};

/// Parses trace JSONL text; throws rebench::ParseError on malformed JSON
/// or records missing required members.  Structural problems (bad
/// parents, non-monotone stamps) are left to lintTrace.
TraceFile parseTraceJsonl(const std::string& text);

/// Reads and parses a trace file; throws rebench::Error when unreadable.
TraceFile readTraceFile(const std::string& path);

/// Validates structural invariants; returns one message per violation
/// (empty = clean):
///   * schema version is known,
///   * span ids unique, parents exist, children nest inside parents,
///   * span end >= start,
///   * record timestamps monotone non-decreasing in file order,
///   * events reference existing spans (no orphans),
///   * records obey their contracts (kRecordContracts, trace_reader.cpp);
///     a span issue names the span id, an event issue the event's index in
///     file order among the events and the id of its owning span.
std::vector<std::string> lintTrace(const TraceFile& trace);

}  // namespace rebench::obs
