#include "core/postproc/profile.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "core/obs/json.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"
#include "core/util/table.hpp"

namespace rebench::postproc {

namespace {

std::string attrOr(const obs::SpanRecord& span, const std::string& key,
                   std::string fallback) {
  const auto it = span.attrs.find(key);
  return it == span.attrs.end() ? std::move(fallback) : it->second;
}

std::string unitLabel(const obs::SpanRecord& span) {
  return attrOr(span, "test", "?") + "@" + attrOr(span, "target", "?") +
         " r" + attrOr(span, "repeat", "0");
}

/// Summed duration of `store.singleflight` descendants of `rootId` with
/// role=follower — the time this campaign spent parked behind another
/// campaign's build.
double followerBlockedSeconds(const obs::TraceFile& trace,
                              const std::string& rootId) {
  const std::string prefix = rootId + ".";
  double blocked = 0.0;
  for (const obs::SpanRecord& span : trace.spans) {
    if (span.name != "store.singleflight") continue;
    if (!str::startsWith(span.id, prefix)) continue;
    if (attrOr(span, "role", "") == "follower") blocked += span.duration();
  }
  return blocked;
}

}  // namespace

TraceProfile profileTrace(const obs::TraceFile& trace) {
  TraceProfile profile;
  for (const obs::SpanRecord& span : trace.spans) {
    if (span.name != "exec.worker") continue;
    const auto lane = span.attrs.find("lane");
    const auto sim = span.attrs.find("sim_seconds");
    if (lane == span.attrs.end() || sim == span.attrs.end()) {
      throw Error("profile: exec.worker span '" + span.id +
                  "' lacks the lane/sim_seconds stamps - the trace "
                  "predates the profiling contract; re-run the campaign");
    }
    ProfiledUnit unit;
    unit.spanId = span.id;
    unit.label = unitLabel(span);
    unit.lane = std::stoi(lane->second);
    unit.simSeconds = std::stod(sim->second);
    unit.blockedSeconds = followerBlockedSeconds(trace, span.id);
    profile.units.push_back(std::move(unit));
  }
  profile.fromWorkerSpans = !profile.units.empty();

  if (!profile.fromWorkerSpans) {
    // Pipeline::runOne trace: no executor layer, so campaigns are the
    // test_run roots and they executed strictly in sequence on one lane.
    // Span durations stand in for the (unstamped) simulated seconds.
    for (const obs::SpanRecord& span : trace.spans) {
      if (span.name != "test_run" || !span.parent.empty()) continue;
      ProfiledUnit unit;
      unit.spanId = span.id;
      unit.label = unitLabel(span);
      unit.lane = 0;
      unit.simSeconds = span.duration();
      unit.blockedSeconds = followerBlockedSeconds(trace, span.id);
      profile.units.push_back(std::move(unit));
    }
  }
  if (profile.units.empty()) {
    throw Error(
        "profile: trace has no exec.worker or test_run spans to profile");
  }

  // Replay the stamped schedule: units chain per lane in file (canonical)
  // order, each starting the moment its lane last freed up — exactly how
  // the executor's greedy list schedule laid them out.
  int maxLane = 0;
  for (const ProfiledUnit& unit : profile.units) {
    maxLane = std::max(maxLane, unit.lane);
  }
  std::vector<double> laneFree(static_cast<std::size_t>(maxLane) + 1, 0.0);
  std::vector<LaneStats> lanes(laneFree.size());
  for (ProfiledUnit& unit : profile.units) {
    const auto lane = static_cast<std::size_t>(unit.lane);
    unit.start = laneFree[lane];
    unit.end = unit.start + unit.simSeconds;
    laneFree[lane] = unit.end;
    lanes[lane].lane = unit.lane;
    ++lanes[lane].units;
    lanes[lane].busySeconds += unit.simSeconds;
    lanes[lane].blockedSeconds += unit.blockedSeconds;
    profile.serialSeconds += unit.simSeconds;
  }
  profile.makespanSeconds =
      *std::max_element(laneFree.begin(), laneFree.end());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i].lane = static_cast<int>(i);
    lanes[i].idleSeconds = profile.makespanSeconds - lanes[i].busySeconds;
  }
  profile.lanes = std::move(lanes);
  return profile;
}

namespace {

std::string percent(double seconds, double total) {
  return str::fixed(total > 0.0 ? seconds / total * 100.0 : 0.0, 1) + "%";
}

/// One Gantt row: units drawn to scale with alternating glyphs so
/// adjacent campaigns stay distinguishable; '.' is idle time.
std::string ganttRow(const TraceProfile& profile, int lane, int width) {
  std::string row(static_cast<std::size_t>(width), '.');
  bool alternate = false;
  for (const ProfiledUnit& unit : profile.units) {
    if (unit.lane != lane) continue;
    const double scale = width / profile.makespanSeconds;
    auto begin = static_cast<std::size_t>(std::floor(unit.start * scale));
    auto end = static_cast<std::size_t>(std::lround(unit.end * scale));
    begin = std::min(begin, static_cast<std::size_t>(width) - 1);
    end = std::clamp(end, begin + 1, static_cast<std::size_t>(width));
    for (std::size_t col = begin; col < end; ++col) {
      row[col] = alternate ? '=' : '#';
    }
    alternate = !alternate;
  }
  return row;
}

}  // namespace

std::string renderProfile(const TraceProfile& profile) {
  constexpr int kGanttWidth = 48;
  std::string out = "lane schedule (makespan " +
                    str::fixed(profile.makespanSeconds, 6) + " s, serial " +
                    str::fixed(profile.serialSeconds, 6) + " s, " +
                    std::to_string(profile.lanes.size()) + " lane(s)";
  if (!profile.fromWorkerSpans) out += ", run-mode trace";
  out += "):\n";
  for (const LaneStats& lane : profile.lanes) {
    out += "  lane " + std::to_string(lane.lane) + " |" +
           (profile.makespanSeconds > 0.0
                ? ganttRow(profile, lane.lane, kGanttWidth)
                : std::string(kGanttWidth, '.')) +
           "| busy " + percent(lane.busySeconds, profile.makespanSeconds) +
           "  idle " + percent(lane.idleSeconds, profile.makespanSeconds) +
           "  blocked " +
           percent(lane.blockedSeconds, profile.makespanSeconds) + "\n";
  }

  AsciiTable table("scheduled campaigns:");
  table.setHeader({"lane", "start s", "end s", "sim s", "blocked s",
                   "campaign"});
  for (const ProfiledUnit& unit : profile.units) {
    table.addRow({std::to_string(unit.lane), str::fixed(unit.start, 6),
                  str::fixed(unit.end, 6), str::fixed(unit.simSeconds, 6),
                  str::fixed(unit.blockedSeconds, 6), unit.label});
  }
  out += table.render();
  return out;
}

std::string profileJson(const TraceProfile& profile) {
  using obs::json::quote;
  std::ostringstream out;
  out << "{\"makespan_s\":" << str::fixed(profile.makespanSeconds, 6)
      << ",\"serial_s\":" << str::fixed(profile.serialSeconds, 6)
      << ",\"from_worker_spans\":"
      << (profile.fromWorkerSpans ? "true" : "false") << ",\"lanes\":[";
  for (std::size_t i = 0; i < profile.lanes.size(); ++i) {
    const LaneStats& lane = profile.lanes[i];
    if (i > 0) out << ",";
    out << "{\"lane\":" << lane.lane << ",\"units\":" << lane.units
        << ",\"busy_s\":" << str::fixed(lane.busySeconds, 6)
        << ",\"idle_s\":" << str::fixed(lane.idleSeconds, 6)
        << ",\"blocked_s\":" << str::fixed(lane.blockedSeconds, 6) << "}";
  }
  out << "],\"units\":[";
  for (std::size_t i = 0; i < profile.units.size(); ++i) {
    const ProfiledUnit& unit = profile.units[i];
    if (i > 0) out << ",";
    out << "{\"span\":" << quote(unit.spanId)
        << ",\"label\":" << quote(unit.label) << ",\"lane\":" << unit.lane
        << ",\"start_s\":" << str::fixed(unit.start, 6)
        << ",\"end_s\":" << str::fixed(unit.end, 6)
        << ",\"sim_s\":" << str::fixed(unit.simSeconds, 6)
        << ",\"blocked_s\":" << str::fixed(unit.blockedSeconds, 6) << "}";
  }
  out << "]}";
  return out.str();
}

// ---- trace diff ---------------------------------------------------------

namespace {

/// Name-paths ("root/child/span") per span, memoized because spans are
/// serialized in *end* order, so a parent may appear after its children.
std::map<std::string, std::string> namePaths(const obs::TraceFile& trace) {
  std::map<std::string, const obs::SpanRecord*> byId;
  for (const obs::SpanRecord& span : trace.spans) byId[span.id] = &span;
  std::map<std::string, std::string> paths;
  auto resolve = [&](auto&& self, const std::string& id) -> std::string {
    if (auto it = paths.find(id); it != paths.end()) return it->second;
    const auto span = byId.find(id);
    if (span == byId.end()) return "?";  // orphan parent; lint reports it
    std::string path = span->second->parent.empty()
                           ? span->second->name
                           : self(self, span->second->parent) + "/" +
                                 span->second->name;
    return paths.emplace(id, std::move(path)).first->second;
  };
  for (const obs::SpanRecord& span : trace.spans) resolve(resolve, span.id);
  return paths;
}

struct PathStats {
  std::size_t count = 0;
  double total = 0.0;
};

void aggregate(const obs::TraceFile& trace,
               std::map<std::string, PathStats>& stats,
               std::vector<std::string>& order) {
  const auto paths = namePaths(trace);
  for (const obs::SpanRecord& span : trace.spans) {
    auto [it, inserted] = stats.try_emplace(paths.at(span.id));
    if (inserted) order.push_back(it->first);
    ++it->second.count;
    it->second.total += span.duration();
  }
}

}  // namespace

std::size_t TraceDiff::regressions() const {
  std::size_t n = 0;
  for (const PathDelta& delta : paths) {
    if (delta.regression) ++n;
  }
  return n;
}

bool TraceDiff::identical() const {
  for (const PathDelta& delta : paths) {
    if (delta.countA != delta.countB || delta.totalA != delta.totalB) {
      return false;
    }
  }
  return counters.empty();
}

TraceDiff diffTraces(const obs::TraceFile& a, const obs::TraceFile& b,
                     double threshold) {
  TraceDiff diff;
  diff.threshold = threshold;

  std::map<std::string, PathStats> statsA, statsB;
  std::vector<std::string> orderA, orderB;
  aggregate(a, statsA, orderA);
  aggregate(b, statsB, orderB);

  // Alignment order: baseline's first-appearance order, then candidate-
  // only paths in the candidate's order — deterministic for both inputs.
  std::vector<std::string> order = orderA;
  for (const std::string& path : orderB) {
    if (!statsA.contains(path)) order.push_back(path);
  }
  for (const std::string& path : order) {
    TraceDiff::PathDelta delta;
    delta.path = path;
    if (auto it = statsA.find(path); it != statsA.end()) {
      delta.countA = it->second.count;
      delta.totalA = it->second.total;
    }
    if (auto it = statsB.find(path); it != statsB.end()) {
      delta.countB = it->second.count;
      delta.totalB = it->second.total;
    }
    if (delta.totalB > delta.totalA) {
      const double grew = delta.totalB - delta.totalA;
      delta.regression = delta.totalA > 0.0
                             ? grew / delta.totalA > threshold
                             : true;  // path appeared (or went 0 -> >0)
    }
    diff.paths.push_back(std::move(delta));
  }

  // Counters: both maps are sorted; report every differing name.
  auto itA = a.counters.begin();
  auto itB = b.counters.begin();
  while (itA != a.counters.end() || itB != b.counters.end()) {
    TraceDiff::CounterDelta delta;
    if (itB == b.counters.end() ||
        (itA != a.counters.end() && itA->first < itB->first)) {
      delta = {itA->first, itA->second, 0};
      ++itA;
    } else if (itA == a.counters.end() || itB->first < itA->first) {
      delta = {itB->first, 0, itB->second};
      ++itB;
    } else {
      delta = {itA->first, itA->second, itB->second};
      ++itA;
      ++itB;
    }
    if (delta.a != delta.b) diff.counters.push_back(std::move(delta));
  }
  return diff;
}

std::string renderDiff(const TraceDiff& diff) {
  AsciiTable table("trace diff (threshold " +
                   str::fixed(diff.threshold * 100.0, 1) + "%):");
  table.setHeader({"stage path", "count A", "count B", "total A s",
                   "total B s", "delta", "verdict"});
  for (const TraceDiff::PathDelta& delta : diff.paths) {
    std::string change = "-";
    if (delta.totalA > 0.0) {
      change = str::fixed(
                   (delta.totalB - delta.totalA) / delta.totalA * 100.0, 1) +
               "%";
    } else if (delta.totalB > 0.0) {
      change = "new";
    }
    std::string verdict = "ok";
    if (delta.regression) {
      verdict = "REGRESSION";
    } else if (delta.countA != delta.countB) {
      verdict = "count";
    } else if (delta.totalB < delta.totalA) {
      verdict = "faster";
    }
    table.addRow({delta.path, std::to_string(delta.countA),
                  std::to_string(delta.countB), str::fixed(delta.totalA, 6),
                  str::fixed(delta.totalB, 6), change, verdict});
  }
  std::string out = table.render();
  if (!diff.counters.empty()) {
    AsciiTable counters("counter deltas:");
    counters.setHeader({"counter", "A", "B"});
    for (const TraceDiff::CounterDelta& delta : diff.counters) {
      counters.addRow({delta.name, std::to_string(delta.a),
                       std::to_string(delta.b)});
    }
    out += counters.render();
  }
  out += "diff: " + std::to_string(diff.paths.size()) + " stage path(s), " +
         std::to_string(diff.regressions()) + " regression(s)";
  out += diff.identical() ? " - traces identical\n" : "\n";
  return out;
}

std::string diffJson(const TraceDiff& diff) {
  using obs::json::quote;
  std::ostringstream out;
  out << "{\"threshold\":" << str::fixed(diff.threshold, 6)
      << ",\"identical\":" << (diff.identical() ? "true" : "false")
      << ",\"regressions\":" << diff.regressions() << ",\"paths\":[";
  for (std::size_t i = 0; i < diff.paths.size(); ++i) {
    const TraceDiff::PathDelta& delta = diff.paths[i];
    if (i > 0) out << ",";
    out << "{\"path\":" << quote(delta.path)
        << ",\"count_a\":" << delta.countA
        << ",\"count_b\":" << delta.countB
        << ",\"total_a_s\":" << str::fixed(delta.totalA, 6)
        << ",\"total_b_s\":" << str::fixed(delta.totalB, 6)
        << ",\"regression\":" << (delta.regression ? "true" : "false")
        << "}";
  }
  out << "],\"counters\":[";
  for (std::size_t i = 0; i < diff.counters.size(); ++i) {
    const TraceDiff::CounterDelta& delta = diff.counters[i];
    if (i > 0) out << ",";
    out << "{\"name\":" << quote(delta.name) << ",\"a\":" << delta.a
        << ",\"b\":" << delta.b << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace rebench::postproc
