// Longitudinal performance history (rebench::history).
//
// An append-only, schema-versioned index of per-(test, target, fom)
// results stored as content-addressed segments in the ObjectStore.  Each
// completed campaign under `--store` appends one segment holding one
// record per (test, target, fom) triple:
//
//   {"kind":"meta","schema":"rebench.history/1","prev":H,"seq":S,
//    "base":B,"records":N}
//   {"kind":"record","seq":K,"test":T,"target":G,"fom":F,
//    "manifest":MH,"env":EF,"spec":SH,"mean":..,"min":..,"max":..,
//    "repeats":R,"sim_timestamp":TS}
//
// Segments form a hash chain: `prev` names the previous segment (empty
// for the first), and the chain head lives under the ObjectStore ref
// "history/head".  Segments are *pinned* in the store so LRU pressure
// from build artefacts can never silently amputate the history; reads
// are verified by the store as usual.  Everything appended derives from
// canonical campaign results and manifests, so history bytes — like
// every other rebench artefact — are identical at every --jobs width.
//
// On top of the index: series grouping, trend rendering (table or JSON,
// with sparklines, rolling stats and changepoint flags), and the
// regression gate `checkRegression` used by `rebench history --check`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/history/changepoint.hpp"

namespace rebench::obs {
class Tracer;
class MetricsRegistry;
}  // namespace rebench::obs

namespace rebench::obs::json {
struct Value;
}  // namespace rebench::obs::json

namespace rebench::store {
class ObjectStore;
}  // namespace rebench::store

namespace rebench {
struct TestRunResult;
}  // namespace rebench

namespace rebench::history {

inline constexpr std::string_view kHistorySchema = "rebench.history/1";
/// ObjectStore ref naming the newest segment of the chain.
inline constexpr std::string_view kHeadRef = "history/head";

/// Reduces campaign results to per-(test, target, fom) aggregates in
/// canonical (test, target, fom) order.  Quarantined and failed runs
/// carry no FOMs and drop out naturally.  The one aggregate record: the
/// history appender, the OpenMetrics FOM samples, the campaign manifest's
/// `foms` and the service journal's `executed` checkpoint all read it, so
/// every view agrees byte-wise; a HistoryRecord is one plus provenance.
struct FomAggregate {
  std::string test;
  std::string target;
  std::string fom;
  /// DAG hash of the first concretized spec the campaign ran for (test,
  /// target), in result order, passing or not ("" when none concretized).
  std::string specHash;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Statistical view of the per-repeat samples (rebench::infer): 95%
  /// CI half-width of the mean (0 when a single repeat leaves it
  /// undefined), effective sample size and lag-1 autocorrelation.
  double ciHalfwidth = 0.0;
  double ess = 0.0;
  double autocorr = 0.0;
  int repeats = 0;

  /// Reads one aggregate object as the campaign manifest ("ci",
  /// "autocorr"), the service journal or a history segment ("spec",
  /// "min", "max", "ci") renders it; absent members keep their defaults.
  static FomAggregate parse(const obs::json::Value& value);
};
std::vector<FomAggregate> aggregateFoms(std::span<const TestRunResult> results);

/// One (test, target, fom) observation from one campaign: the campaign's
/// aggregate plus where it came from.  Segments render every aggregate
/// member but `autocorr`.
struct HistoryRecord : FomAggregate {
  std::uint64_t seq = 0;       // global append order, assigned by the index
  std::string manifestHash;    // campaign manifest contentHash
  std::string envFingerprint;  // BuildCache::environmentFingerprint
  double simTimestamp = 0.0;  // cumulative simulated seconds at append
};

/// The chain view over an ObjectStore.  Not thread-safe; callers append
/// from the (single-threaded) CLI tail after campaign merge.
class HistoryIndex {
 public:
  explicit HistoryIndex(store::ObjectStore& store);

  /// Optional hooks (nullable, not owned): appends emit one
  /// `history.append` span per record, queries one `history.query` span,
  /// both carrying test/target/fom/records attributes (the trace_lint
  /// contract); counters `history.append` / `history.query` tick.
  void setObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Appends `records` as one new pinned segment and advances the head
  /// ref.  Sequence numbers are assigned here (input order preserved).
  /// Returns the segment hash; empty input appends nothing and returns "".
  std::string appendSegment(std::span<const HistoryRecord> records);

  /// All records, oldest first.  A broken chain (evicted or corrupt
  /// segment) throws rebench::Error naming the missing hash.
  std::vector<HistoryRecord> readAll() const;

  /// Records matching the filters, oldest first; empty filter = any.
  std::vector<HistoryRecord> query(std::string_view test,
                                   std::string_view target = {},
                                   std::string_view fom = {}) const;

  std::size_t segmentCount() const;

 private:
  /// Every segment's records, newest first: the one walk of the chain.
  std::vector<std::vector<HistoryRecord>> readSegments() const;

  store::ObjectStore& store_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Serialization used for segment blobs (exposed for tests/tools).
std::string serializeSegment(std::span<const HistoryRecord> records,
                             std::string_view prevHash, std::uint64_t seq,
                             std::uint64_t base);
/// Parses one segment blob; returns records and fills `prevHash` /
/// `seq` when requested.  Throws rebench::Error on schema mismatch.
std::vector<HistoryRecord> parseSegment(std::string_view bytes,
                                        std::string* prevHash = nullptr,
                                        std::uint64_t* seq = nullptr);

/// Groups records into per-(test, target, fom) series, preserving append
/// order inside each series; series are keyed "test|target|fom" and the
/// map iterates in lexicographic key order.
std::map<std::string, std::vector<HistoryRecord>> groupSeries(
    std::span<const HistoryRecord> records);

struct RenderOptions {
  bool json = false;
  std::size_t window = 5;  // rolling stats + gate baseline width
  ChangepointOptions changepoint;
};

/// Renders the trend view `rebench history` prints: one block per
/// series with a sparkline, per-record rows (seq, mean, min, max,
/// repeats, rolling mean/stddev, changepoint marker) and flagged
/// changepoints.  JSON mode emits the same data as one document.
std::string renderHistory(std::span<const HistoryRecord> records,
                          const RenderOptions& options);

struct GateOptions {
  std::size_t window = 5;    // rolling-baseline width (records before newest)
  double threshold = 0.05;   // relative drop that counts as a regression
};

/// Per-series verdict of the regression gate.
struct GateResult {
  std::string series;      // "test|target|fom"
  double baseline = 0.0;   // rolling mean of up to `window` predecessors
  double latest = 0.0;
  double delta = 0.0;      // (latest - baseline) / baseline
  bool regression = false;
  bool insufficient = false;  // < 2 records: nothing to compare

  // Statistical justification (rebench::infer): a threshold-sized drop
  // only regresses when it is also *significant* — the latest mean
  // falls below the baseline minus the baseline window's own 95% CI
  // half-width — so same-variance wobble stays clean.
  double baselineCi = 0.0;  // CI half-width of the baseline window mean
  double latestCi = 0.0;    // latest record's own CI half-width
  double latestEss = 0.0;   // latest record's effective sample size
  bool significant = false;
  bool changepoint = false;  // EDM flags a down-shift over the series
  std::size_t changepointIndex = 0;  // series index; valid when changepoint
  std::string justification;  // deterministic human-readable reason
};

/// Gates every series in `records`: the newest record against the
/// rolling mean of its predecessors.  Higher FOM = better (rates);
/// a relative drop beyond `threshold` that is also statistically
/// significant (see GateResult) is a regression.  An EDM changepoint
/// scan over the series means justifies series-level regime shifts.
std::vector<GateResult> checkRegression(std::span<const HistoryRecord> records,
                                        const GateOptions& options);

}  // namespace rebench::history
