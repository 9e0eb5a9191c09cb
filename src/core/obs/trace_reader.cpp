#include "core/obs/trace_reader.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::obs {

namespace {

enum class RecordKind { kEvent, kSpan };
/// How a required attribute's value is checked: present is enough, one of
/// `choices`, a non-negative integer, digits with at most one '.', or an
/// HTTP status (integer in [100, 599]).
enum class ValueKind { kAny, kOneOf, kCount, kDecimal, kHttpStatus };
using enum RecordKind;
using enum ValueKind;

struct AttrRule {
  std::string_view key;
  ValueKind kind = kAny;
  std::vector<std::string_view> choices = {};
};

/// One record contract: every record of `kind` whose name matches must
/// carry each attribute in `attrs`.  A name ending in '.' is a prefix.
struct RecordContract {
  RecordKind kind;
  std::string_view name;
  std::vector<AttrRule> attrs;
};

/// The attribute contracts of every record kind that has one (DESIGN.md
/// §8, "Record contracts").  A record matching several rows (the
/// postproc.columnar. prefix and an exact columnar name) obeys them all.
const std::vector<RecordContract> kRecordContracts = {
    // Fault injection names what fired at which attempt key, and the
    // breaker key a quarantine opened.
    {kEvent, "fault.inject", {{"kind"}, {"key"}}},
    {kEvent, "fault.quarantine", {{"key"}}},
    // Store writes and evictions name the object they touched.
    {kEvent, "store.put", {{"hash"}, {"bytes"}}},
    {kEvent, "store.evict", {{"hash"}}},
    // A backoff span records which retry it delayed and for how long.
    {kSpan, "backoff", {{"attempt"}, {"seconds"}}},
    {kSpan, "store.lookup",
     {{"key"}, {"outcome", kOneOf, {"hit", "miss", "corrupt", "drift"}}}},
    {kSpan, "store.runcache",
     {{"key"}, {"outcome", kOneOf, {"hit", "miss", "corrupt", "stale"}}}},
    {kSpan, "store.singleflight",
     {{"key"}, {"role", kOneOf, {"leader", "follower", "cached"}}}},
    // A worker span identifies its campaign completely; the lane is a
    // canonical virtual-lane index of the profiling schedule.
    {kSpan, "exec.worker",
     {{"campaign"}, {"test"}, {"target"}, {"repeat"}, {"lane", kCount},
      {"sim_seconds"}}},
    {kSpan, "history.append",
     {{"test"}, {"target"}, {"fom"}, {"records", kCount}}},
    {kSpan, "history.query",
     {{"test"}, {"target"}, {"fom"}, {"records", kCount}}},
    {kSpan, "serve.submission", {{"submission"}, {"verdict"}}},
    // A fired serve watchdog records what it guarded and both sides of
    // the comparison that tripped it.
    {kSpan, "serve.watchdog",
     {{"stage"}, {"limit_seconds"}, {"elapsed_seconds"}}},
    {kSpan, "serve.endpoint", {{"route"}, {"status", kHttpStatus}}},
    // The rusage delta: decimal CPU milliseconds plus an integer peak.
    {kSpan, "telemetry.probe",
     {{"stage"}, {"rusage_user_ms", kDecimal}, {"rusage_sys_ms", kDecimal},
      {"rusage_maxrss_kb", kCount}}},
    // The statistical evidence behind a run-length decision (controller)
    // or a gate verdict (changepoint).
    {kSpan, "infer.controller",
     {{"test"}, {"target"}, {"fom"}, {"repeats", kCount}, {"ess"},
      {"ci_halfwidth"}}},
    {kSpan, "infer.changepoint",
     {{"test"}, {"target"}, {"fom"}, {"repeats", kCount}, {"ess"},
      {"ci_halfwidth"}}},
    // Columnar-engine spans account for the work they did.
    {kSpan, "postproc.columnar.", {{"rows", kCount}}},
    {kSpan, "postproc.columnar.convert", {{"chunks", kCount}}},
    {kSpan, "postproc.columnar.merge",
     {{"chunks", kCount}, {"inputs", kCount}}},
    {kSpan, "postproc.columnar.kernel",
     {{"kernel"}, {"skipped_chunks", kCount}}},
};

bool allDigits(std::string_view text) {
  return !text.empty() &&
         text.find_first_not_of("0123456789") == std::string_view::npos;
}

/// The value of a non-negative integer, or -1 when `text` is not one or
/// does not fit in a long.
long parseCount(std::string_view text) {
  long value = -1;
  if (allDigits(text)) {
    std::from_chars(text.data(), text.data() + text.size(), value);
  }
  return value;
}

/// The complaint a value earns under `rule`, or nullptr when it conforms.
const char* valueComplaint(const AttrRule& rule, std::string_view text) {
  switch (rule.kind) {
    case kAny:
      return nullptr;
    case kOneOf:
      return std::ranges::count(rule.choices, text) ? nullptr : "invalid";
    case kCount:
      return allDigits(text) ? nullptr : "non-numeric";
    case kDecimal:
      return !text.empty() &&
                     text.find_first_not_of("0123456789.") ==
                         std::string_view::npos &&
                     std::ranges::count(text, '.') <= 1
                 ? nullptr
                 : "non-numeric";
    case kHttpStatus: {
      const long code = parseCount(text);
      return code >= 100 && code <= 599 ? nullptr : "invalid";
    }
  }
  return nullptr;
}

/// Checks one record against every contract row its name matches;
/// `subject` opens each message ("<name> event #<index> in span '<id>'",
/// "<name> span '<id>'").
void checkContract(RecordKind kind, const std::string& name,
                   const std::string& subject, const AttrMap& attrs,
                   std::vector<std::string>& issues) {
  for (const RecordContract& contract : kRecordContracts) {
    const bool matches = contract.name.ends_with('.')
                             ? name.starts_with(contract.name)
                             : name == contract.name;
    if (contract.kind != kind || !matches) continue;
    for (const AttrRule& rule : contract.attrs) {
      const std::string key(rule.key);
      const auto it = attrs.find(key);
      if (it == attrs.end()) {
        const bool vowel = key.find_first_of("aeiou") == 0;
        issues.push_back(subject + " without " + (vowel ? "an '" : "a '") +
                         key + "' attribute");
      } else if (const char* complaint = valueComplaint(rule, it->second)) {
        issues.push_back(subject + " has " + complaint + " " + key + " '" +
                         it->second + "'");
      }
    }
  }
}

AttrMap readAttrs(const json::Value& record) {
  AttrMap attrs;
  if (!record.contains("attrs")) return attrs;
  const json::Value& object = record.at("attrs");
  if (!object.isObject()) throw ParseError("trace: 'attrs' is not an object");
  for (const auto& [key, value] : object.object) {
    if (!value.isString()) {
      throw ParseError("trace: attribute '" + key + "' is not a string");
    }
    attrs[key] = value.text;
  }
  return attrs;
}

}  // namespace

TraceFile parseTraceJsonl(const std::string& text) {
  TraceFile trace;
  std::istringstream in(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (str::trim(line).empty()) continue;
    json::Value record;
    try {
      record = json::parse(line);
    } catch (const ParseError& e) {
      throw ParseError("trace line " + std::to_string(lineNo) + ": " +
                       e.what());
    }
    if (!record.isObject()) {
      throw ParseError("trace line " + std::to_string(lineNo) +
                       ": not a JSON object");
    }
    const std::string kind = record.stringOr("kind", "");
    if (kind == "meta") {
      trace.schema = record.stringOr("schema", "");
      trace.clockKind = record.stringOr("clock", "");
    } else if (kind == "span") {
      SpanRecord span;
      span.id = record.at("id").text;
      span.parent = record.stringOr("parent", "");
      span.name = record.at("name").text;
      span.start = record.at("start").number;
      span.end = record.at("end").number;
      span.attrs = readAttrs(record);
      trace.timeline.push_back({"span", span.end});
      trace.spans.push_back(std::move(span));
    } else if (kind == "event") {
      EventRecord event;
      event.span = record.stringOr("span", "");
      event.name = record.at("name").text;
      event.time = record.at("time").number;
      event.attrs = readAttrs(record);
      trace.timeline.push_back({"event", event.time});
      trace.events.push_back(std::move(event));
    } else if (kind == "counter") {
      trace.counters[record.at("name").text] =
          static_cast<std::uint64_t>(record.at("value").number);
    } else if (kind == "gauge") {
      trace.gauges[record.at("name").text] = {record.at("value").number,
                                              record.numberOr("max", 0.0)};
    } else if (kind == "histogram") {
      TraceFile::HistogramDump dump;
      for (const json::Value& bound : record.at("bounds").array) {
        dump.bounds.push_back(bound.number);
      }
      for (const json::Value& count : record.at("counts").array) {
        dump.counts.push_back(static_cast<std::uint64_t>(count.number));
      }
      dump.count = static_cast<std::uint64_t>(record.at("count").number);
      dump.sum = record.at("sum").number;
      trace.histograms[record.at("name").text] = std::move(dump);
    } else {
      throw ParseError("trace line " + std::to_string(lineNo) +
                       ": unknown record kind '" + kind + "'");
    }
  }
  return trace;
}

TraceFile readTraceFile(const std::string& path) {
  const std::optional<std::string> text = readWholeFile(path);
  if (!text) throw Error("cannot read trace file '" + path + "'");
  return parseTraceJsonl(*text);
}

std::vector<std::string> lintTrace(const TraceFile& trace) {
  std::vector<std::string> issues;

  if (trace.schema != kTraceSchema) {
    issues.push_back("unknown or missing schema '" + trace.schema +
                     "' (expected '" + std::string(kTraceSchema) + "')");
  }
  if (trace.clockKind != "sim" && trace.clockKind != "wall") {
    issues.push_back("meta line missing a valid clock kind");
  }

  std::map<std::string, const SpanRecord*> byId;  // last span of each id
  for (const SpanRecord& span : trace.spans) {
    if (!byId.insert_or_assign(span.id, &span).second) {
      issues.push_back("duplicate span id '" + span.id + "'");
    }
  }

  for (const SpanRecord& span : trace.spans) {
    if (span.end < span.start) {
      issues.push_back("span '" + span.id + "' (" + span.name +
                       ") ends before it starts");
    }
    if (span.parent.empty()) continue;
    auto it = byId.find(span.parent);
    if (it == byId.end()) {
      issues.push_back("span '" + span.id + "' (" + span.name +
                       ") has unknown parent '" + span.parent + "'");
      continue;
    }
    const SpanRecord& parent = *it->second;
    if (span.start < parent.start || span.end > parent.end) {
      issues.push_back("span '" + span.id + "' (" + span.name +
                       ") is not nested inside its parent '" + span.parent +
                       "'");
    }
  }

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const EventRecord& event = trace.events[i];
    if (!event.span.empty() && byId.find(event.span) == byId.end()) {
      issues.push_back("event '" + event.name + "' references unknown span '" +
                       event.span + "'");
    }
    // Events have no id: locate one by its index among the file's events
    // and by the span that was open when it fired.
    std::string subject = event.name + " event #" + std::to_string(i);
    if (!event.span.empty()) subject += " in span '" + event.span + "'";
    checkContract(kEvent, event.name, subject, event.attrs, issues);
  }
  for (const SpanRecord& span : trace.spans) {
    checkContract(kSpan, span.name, span.name + " span '" + span.id + "'",
                  span.attrs, issues);
  }

  // Shard-merge contract: Tracer::absorb renumbers shard roots to follow
  // the host tracer's, so in file order the leading root number of every
  // span and event is non-decreasing (and span ids stay unique — checked
  // above).  A violation means a merge scrambled or duplicated shards.
  long previousRoot = 0;
  std::size_t spanIdx = 0, eventIdx = 0;
  for (const TraceFile::TimelineEntry& entry : trace.timeline) {
    std::string owner;
    if (entry.kind == "span") {
      owner = trace.spans[spanIdx++].id;
    } else {
      owner = trace.events[eventIdx++].span;
      if (owner.empty()) continue;  // unowned events carry no root
    }
    // A malformed or out-of-range id is left to the parent checks.
    const long root = parseCount(owner.substr(0, owner.find('.')));
    if (root < 0) continue;
    if (root < previousRoot) {
      issues.push_back("non-monotone root ids after merge: record of root " +
                       std::to_string(root) + " follows root " +
                       std::to_string(previousRoot));
    }
    previousRoot = std::max(previousRoot, root);
  }

  double previous = 0.0;
  bool first = true;
  for (const TraceFile::TimelineEntry& entry : trace.timeline) {
    if (!first && entry.time < previous) {
      issues.push_back("non-monotone timestamps: " + entry.kind + " at " +
                       str::fixed(entry.time, 6) + " after " +
                       str::fixed(previous, 6));
    }
    previous = entry.time;
    first = false;
  }

  return issues;
}

}  // namespace rebench::obs
