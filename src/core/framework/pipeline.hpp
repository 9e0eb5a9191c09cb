// The benchmarking pipeline — Figure 1 of the paper as code.
//
//   concretize -> build -> submit/run -> sanity -> performance -> perflog
//
// Each stage's artefacts (concrete spec, build record, launch command, job
// accounting) are retained on the result object so that a run is fully
// auditable after the fact.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/concretizer/concretizer.hpp"
#include "core/fault/failure.hpp"
#include "core/fault/fault.hpp"
#include "core/fault/journal.hpp"
#include "core/fault/quarantine.hpp"
#include "core/fault/retry.hpp"
#include "core/fault/watchdog.hpp"
#include "core/framework/perflog.hpp"
#include "core/framework/regression_test.hpp"
#include "core/framework/telemetry.hpp"
#include "core/pkg/build_plan.hpp"
#include "core/pkg/recipe.hpp"
#include "core/sched/launcher.hpp"
#include "core/store/build_cache.hpp"
#include "core/sysconfig/system_config.hpp"
#include "core/telemetry/probe.hpp"

namespace rebench {

namespace telemetry {
class EventBus;
}  // namespace telemetry

namespace obs {
class Tracer;
class MetricsRegistry;
}  // namespace obs

struct PipelineOptions {
  /// Account passed to schedulers that require one (-J'--account=...').
  std::string account = "ec999";
  /// Number of times to re-run the measurement (first-class repeats; the
  /// perflog records every repeat).
  int numRepeats = 1;
  /// Retry policy for transiently-failed attempts: per-stage budgets and
  /// exponential backoff with deterministic jitter (replaces ReFrame's
  /// flat --max-retries).  Only FailureClass::kTransient failures are
  /// retried; backoff waits consume simulated time and appear as
  /// `backoff` spans in the trace.
  RetryPolicy retry;
  /// Deterministic fault injection (all-zero probabilities = off).
  FaultConfig faults;
  /// Per-stage deadlines in simulated seconds (--stage-timeout; disabled
  /// by default).  A stage that exceeds its deadline — or a retry ladder
  /// whose cumulative backoff would — fails as kInfrastructure: never
  /// retried in place, counted by the circuit breaker, and visible as a
  /// `fault.watchdog` trace event.
  WatchdogPolicy watchdog;
  /// Circuit-breaker thresholds used by runAll to quarantine (test,
  /// target) pairs / whole partitions after consecutive infrastructure
  /// failures.
  BreakerOptions breaker;
  /// Optional observability hooks (rebench::obs, both nullable, not
  /// owned).  With a tracer attached, every runOne emits one `test_run`
  /// root span with `attempt` children wrapping the
  /// concretize/build/submit/run/sanity/performance/telemetry stage
  /// spans; the tracer's clock is advanced by simulated build/queue/run
  /// seconds so traces of modelled runs are deterministic.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional content-addressed artifact store (not owned).  When set
  /// (and cacheBuilds is true) the build stage consults a provenance-
  /// keyed cache before executing: reuse happens only on an exact
  /// hash(concretized spec + system environment + recipe) match, so any
  /// drift forces a rebuild — P3's "rebuild every run" strengthened to
  /// "re-concretize every run, reuse only verified-identical builds".
  store::ObjectStore* store = nullptr;
  /// --no-cache: keep recording to the store but never reuse from it.
  bool cacheBuilds = true;
  /// Campaign-level parallelism for runAll: up to `jobs` independent
  /// (test, target, repeat) campaigns execute concurrently, stages
  /// overlapped.  Perflog, trace and manifest bytes are identical for
  /// every value — parallelism is an implementation detail, not an
  /// output-visible mode.  1 = in-line execution.
  int jobs = 1;
  /// Width of the canonical virtual-lane schedule the executor stamps
  /// into every `exec.worker` span (`lane` + `sim_seconds` attributes)
  /// for trace profiling (`rebench profile`).  Deliberately independent
  /// of `jobs`: the stamped profile is a property of the campaign, not
  /// of the worker count it happened to execute with, so trace bytes
  /// stay identical across --jobs values.  (--lanes)
  int profileLanes = 8;
  /// Per-stage resource accounting around build/run (--probe): off by
  /// default; sim mode is a deterministic synthetic source (byte-stable
  /// at any --jobs), real mode reads getrusage//proc/self/statm.
  telemetry::ProbeMode probe = telemetry::ProbeMode::kOff;
  /// Live telemetry event bus (not owned, nullable).  Publishing never
  /// changes byte-deterministic artifacts — events only feed the serve
  /// daemon's status endpoint and crash flight recorder.
  telemetry::EventBus* bus = nullptr;
};

/// Execution context threaded through one campaign: where observability
/// and perflog records go (per-campaign shards under the parallel
/// executor, the pipeline's own hooks otherwise), plus the single-flight
/// protocol the executor uses so each unique build key builds exactly
/// once across concurrent campaigns.
struct CampaignExecContext {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Perflog records accumulate here *untimestamped*; they are stamped
  /// and appended in canonical suite order once the campaign's place is
  /// settled.  Null = no perflog requested.
  std::vector<PerfLogEntry>* perfBuffer = nullptr;

  /// How a campaign participates in the build of its cache key.
  enum class BuildRole {
    kDirect,    // no executor coordination: probe the cache directly
    kLeader,    // first user of a cold key: builds it, others wait
    kFollower,  // concurrent user of a cold key: waits for the leader
    kCached,    // key was warm before the campaign started: plain lookup
  };
  /// Resolves this campaign's role (executor-provided; null in direct
  /// mode).  Writes the single-flight epoch observed at resolution time;
  /// a follower whose awaitBuilt() returns false (leader abandoned)
  /// re-resolves — possibly becoming the new leader.
  std::function<BuildRole(std::uint64_t*)> resolveBuildRole;
  store::SingleFlight* singleFlight = nullptr;
};

/// Everything that happened for one (test, system:partition) execution.
struct TestRunResult {
  std::string testName;
  std::string system;
  std::string partition;
  std::string environ;

  std::shared_ptr<const ConcreteSpec> concreteSpec;
  std::vector<std::string> concretizationTrace;
  BuildRecord build;
  std::string launchCommand;
  /// The batch script that reproduces this run (Principle 5 artefact).
  std::string jobScript;
  JobId jobId = 0;
  JobState jobState = JobState::kPending;
  std::string stdoutText;

  bool sanityPassed = false;
  /// Extracted FOM values by name (last repeat).
  std::map<std::string, double> foms;
  /// Per-FOM pass/fail against references (true when no reference exists).
  std::map<std::string, bool> fomWithinReference;

  bool passed = false;
  /// Classified failure (stage empty on success).
  FailureInfo failure;
  /// True when the run never executed because its (test, target) pair or
  /// partition was quarantined by the circuit breaker.
  bool quarantined = false;
  /// Scheduler-level preemption/requeue count for the final attempt.
  int requeues = 0;
  /// 1 + number of retries consumed.
  int attempts = 1;

  /// System-state samples covering the job (empty when telemetry is off
  /// or the partition has no machine model).
  TelemetrySeries telemetry;
  /// Sample indices where background traffic may have perturbed the run.
  std::vector<std::size_t> contentionFlags;

  /// Per-stage resource deltas ("build", "run") when a ResourceProbe is
  /// active; empty otherwise.
  std::map<std::string, telemetry::ResourceSample> stageResources;

  double simulatedPipelineSeconds = 0.0;  // build + queue + run
};

/// Campaign-level accounting produced by runAll (all fields additive to
/// the returned results; quarantined entries also appear as results).
struct CampaignReport {
  std::size_t executed = 0;
  /// Tuples skipped because the run journal already contains them.
  std::size_t skippedJournaled = 0;
  /// Tuples skipped by the circuit breaker.
  std::size_t quarantined = 0;
  /// Breaker keys ("test@system:partition" or "system:partition") whose
  /// circuit opened during the campaign, in open order.
  std::vector<std::string> quarantinedKeys;
  /// Distinct cold build keys that built during the campaign (one build
  /// per key — the single-flight invariant).
  std::size_t uniqueBuilds = 0;
  /// Builds avoided because a concurrent campaign shared a leader's
  /// build instead of rebuilding the same key.
  std::size_t dedupedBuilds = 0;
  /// Sum of executed campaigns' simulated pipeline seconds — the serial
  /// campaign cost.
  double simulatedSerialSeconds = 0.0;
  /// Simulated campaign makespan under `jobs` workers (greedy list
  /// schedule over the executed campaigns in canonical order).
  double simulatedMakespanSeconds = 0.0;
  /// Distinct ThreadPool worker lanes observed executing campaigns
  /// (diagnostic — scheduling-dependent, never part of output bytes;
  /// helpers draining the queue count as one extra "caller" lane).
  std::size_t workerLanesTouched = 0;
};

/// Half-open repeat range for one (test, target) pair — the adaptive
/// run-length controller's unit of scheduling (rebench::infer).
struct RepeatWindow {
  int begin = 0;
  int end = 0;  // exclusive
};

/// Drives regression tests through the full pipeline on simulated systems.
class Pipeline {
 public:
  Pipeline(const SystemRegistry& systems, const PackageRepository& repo,
           PipelineOptions options = {});

  /// Runs one test on "system[:partition]", honouring the retry policy.
  /// `repeatIndex` feeds the benchmark's run-to-run noise stream.
  TestRunResult runOne(const RegressionTest& test, std::string_view target,
                       PerfLog* perflog = nullptr, int repeatIndex = 0);

  /// Runs every test on every matching target; skips non-matching pairs.
  /// With a `journal`, already-recorded (test, target, repeat) tuples are
  /// skipped and completed ones appended — the --resume mechanism.  A
  /// circuit breaker (options.breaker) quarantines pairs/partitions after
  /// consecutive infrastructure failures; quarantined tuples yield
  /// results with failure.stage == "quarantine" instead of executing.
  /// Campaigns execute on options.jobs workers (see CampaignExecutor);
  /// output bytes are independent of the job count.
  std::vector<TestRunResult> runAll(std::span<const RegressionTest> tests,
                                    std::span<const std::string> targets,
                                    PerfLog* perflog = nullptr,
                                    RunJournal* journal = nullptr,
                                    CampaignReport* report = nullptr);

  /// runAll restricted to explicit per-pair repeat windows: each
  /// (test, target) pair runs repeats [begin, end) from `windows`
  /// (keyed "test@system:partition"); pairs without an entry fall back
  /// to `defaultWindow` when provided and are skipped entirely
  /// otherwise.  The adaptive run-length controller (rebench::infer)
  /// grows sampling round by round through this; every executor
  /// guarantee (canonical merge order, byte-identical output at any
  /// --jobs width) holds per call, and timestamps stay monotone across
  /// calls because the logical clock lives on the pipeline.
  std::vector<TestRunResult> runWindows(
      std::span<const RegressionTest> tests,
      std::span<const std::string> targets,
      const std::map<std::string, RepeatWindow>& windows,
      std::optional<RepeatWindow> defaultWindow = std::nullopt,
      PerfLog* perflog = nullptr, RunJournal* journal = nullptr,
      CampaignReport* report = nullptr);

  /// Monotone stamp used for perflog timestamps (deterministic).
  std::string nextTimestamp();

  /// Observability hooks from the options (nullable) — exposed so the
  /// adaptive controller can emit `infer.*` spans and gauges into the
  /// same canonical stream the executor merges into.
  obs::Tracer* tracer() const { return options_.tracer; }
  obs::MetricsRegistry* metrics() const { return options_.metrics; }

  /// The store-backed build cache, when a store is attached and caching
  /// is enabled (hit/miss stats for campaign summaries); else null.
  const store::BuildCache* buildCache() const {
    return buildCache_ ? &*buildCache_ : nullptr;
  }

 private:
  friend class CampaignExecutor;

  /// One full campaign — the retry loop around runOnce — reporting into
  /// `ctx` instead of the pipeline's own observability hooks.
  TestRunResult runCampaign(const RegressionTest& test,
                            std::string_view target, int repeatIndex,
                            const CampaignExecContext& ctx);
  /// `attempt` is 1-based (1 + retries consumed so far); recorded on the
  /// attempt span and as an `attempt` perflog extra.
  TestRunResult runOnce(const RegressionTest& test, std::string_view target,
                        const CampaignExecContext& ctx, int repeatIndex,
                        int attempt);
  /// The build stage's cache path: resolves the campaign's single-flight
  /// role (when an executor coordinates) and either force-builds as the
  /// leader or performs a verified lookup.
  BuildRecord buildViaCache(const BuildPlan& plan,
                            const SystemEnvironment& env,
                            const CampaignExecContext& ctx, int attempt);
  /// Stamps buffered perflog records with monotone timestamps and
  /// appends them; no-op with a null perflog.
  void flushPerfBuffer(std::vector<PerfLogEntry>& buffer, PerfLog* perflog);

  const SystemRegistry& systems_;
  const PackageRepository& repo_;
  PipelineOptions options_;
  Builder builder_;
  std::optional<store::BuildCache> buildCache_;
  std::optional<FaultInjector> injector_;
  std::uint64_t logicalTime_ = 0;
};

}  // namespace rebench
