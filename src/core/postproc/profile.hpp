// Trace profiling engine (rebench::postproc) — reconstructs the
// canonical campaign schedule from a trace's `exec.worker` spans and
// derives worker-lane utilization, the ASCII Gantt view, and trace
// diffs.  Fronts `rebench profile`.
//
// The executor stamps every worker span with the canonical virtual-lane
// schedule (`lane`, `sim_seconds` — see CampaignExecutor::
// stampProfileLanes), which is a pure function of the campaign in
// canonical order: the profile of a trace is therefore identical across
// --jobs values, and `profileTrace` only has to *replay* the stamps by
// chaining units per lane (start = time the lane last freed up).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/obs/trace_reader.hpp"

namespace rebench::postproc {

/// One scheduled campaign unit — an `exec.worker` span, or a `test_run`
/// root when profiling a trace without an executor layer (written through
/// Pipeline::runOne; such units chain sequentially on lane 0).
struct ProfiledUnit {
  std::string spanId;
  std::string label;  // "test@system:partition r<repeat>"
  int lane = 0;
  double simSeconds = 0.0;  // stamped simulated pipeline seconds
  double start = 0.0;       // schedule-relative lane start
  double end = 0.0;
  /// Time spent blocked behind another campaign's build — the summed
  /// duration of descendant store.singleflight spans with role=follower.
  double blockedSeconds = 0.0;
};

/// Busy/idle/blocked accounting for one virtual lane.
struct LaneStats {
  int lane = 0;
  std::size_t units = 0;
  double busySeconds = 0.0;
  double idleSeconds = 0.0;  // makespan - busy
  double blockedSeconds = 0.0;
};

/// A reconstructed campaign schedule.
struct TraceProfile {
  std::vector<ProfiledUnit> units;  // canonical (file) order
  std::vector<LaneStats> lanes;     // ascending lane number
  double makespanSeconds = 0.0;     // max lane end
  double serialSeconds = 0.0;       // sum of unit simSeconds
  /// True when the schedule came from stamped exec.worker spans; false
  /// for the Pipeline::runOne test_run fallback.
  bool fromWorkerSpans = false;
};

/// Reconstructs the schedule.  Throws rebench::Error when the trace has
/// exec.worker spans without the lane/sim_seconds stamps (a trace from a
/// build predating the profiling contract) and when it has no profilable
/// spans at all.
TraceProfile profileTrace(const obs::TraceFile& trace);

/// ASCII Gantt of the lanes plus per-lane busy/idle/blocked percentages
/// and the unit table.
std::string renderProfile(const TraceProfile& profile);

/// JSON object fragment ({"makespan":...}) shared by `profile --json`.
std::string profileJson(const TraceProfile& profile);

// ---- trace diff ---------------------------------------------------------

/// Two traces aligned by span name-path (span names joined root→span
/// with '/'), with per-path count and total-duration deltas.
struct TraceDiff {
  struct PathDelta {
    std::string path;
    std::size_t countA = 0;
    std::size_t countB = 0;
    double totalA = 0.0;
    double totalB = 0.0;
    /// B's total grew beyond the relative threshold (or appeared).
    bool regression = false;
  };
  struct CounterDelta {
    std::string name;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  std::vector<PathDelta> paths;  // A's first-appearance order, then B-only
  std::vector<CounterDelta> counters;  // differing counters only (sorted)
  double threshold = 0.05;

  std::size_t regressions() const;
  /// No count, duration or counter deltas at all (self-diff is identical).
  bool identical() const;
};

/// Aligns `a` (baseline) and `b` (candidate); a path regresses when its
/// total duration grows by more than `threshold` (relative), or appears
/// only in `b`.
TraceDiff diffTraces(const obs::TraceFile& a, const obs::TraceFile& b,
                     double threshold = 0.05);

std::string renderDiff(const TraceDiff& diff);
std::string diffJson(const TraceDiff& diff);

}  // namespace rebench::postproc
