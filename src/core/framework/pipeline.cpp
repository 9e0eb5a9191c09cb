#include "core/framework/pipeline.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <regex>

#include "core/obs/trace.hpp"
#include "core/telemetry/bus.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"
#include "sim/machine.hpp"

namespace rebench {

namespace {

// libstdc++'s regex compiler lazily fills the classic locale's global
// ctype narrow cache with plain (unsynchronized) byte stores, so two
// campaign workers compiling patterns concurrently are a data race.
// Compilation is rare (one regex per sanity/perf check) — serialize it.
std::regex compileRegex(const std::string& pattern) {
  static std::mutex mutex;
  std::lock_guard lock(mutex);
  return std::regex(pattern);
}

/// A fired watchdog shows as one `fault.watchdog` event and ticks the
/// total and per-stage fire counters.
void noteWatchdog(const WatchdogFire& fire, obs::Tracer* tracer,
                  obs::MetricsRegistry* metrics) {
  if (tracer != nullptr) {
    tracer->event("fault.watchdog",
                  {{"stage", fire.stage},
                   {"limit_seconds", str::fixed(fire.limitSeconds, 6)},
                   {"elapsed_seconds", str::fixed(fire.elapsedSeconds, 6)}});
  }
  if (metrics != nullptr) {
    metrics->counter("fault.watchdog_fired").inc();
    metrics->counter("fault.watchdog_fired/" + fire.stage).inc();
  }
}

}  // namespace

Pipeline::Pipeline(const SystemRegistry& systems,
                   const PackageRepository& repo, PipelineOptions options)
    : systems_(systems),
      repo_(repo),
      options_(std::move(options)) {
  if (options_.store != nullptr) {
    options_.store->setObservability(options_.tracer, options_.metrics);
    if (options_.cacheBuilds) {
      buildCache_.emplace(*options_.store, options_.tracer,
                          options_.metrics);
    }
  }
  if (options_.faults.enabled()) injector_.emplace(options_.faults);
}

std::string Pipeline::nextTimestamp() {
  return "T" + std::to_string(logicalTime_++);
}

void Pipeline::flushPerfBuffer(std::vector<PerfLogEntry>& buffer,
                               PerfLog* perflog) {
  if (perflog == nullptr) return;
  for (PerfLogEntry& entry : buffer) {
    entry.timestamp = nextTimestamp();
    perflog->append(entry);
  }
}

TestRunResult Pipeline::runOne(const RegressionTest& test,
                               std::string_view target, PerfLog* perflog,
                               int repeatIndex) {
  std::vector<PerfLogEntry> buffer;
  CampaignExecContext ctx;
  ctx.tracer = options_.tracer;
  ctx.metrics = options_.metrics;
  ctx.perfBuffer = perflog != nullptr ? &buffer : nullptr;
  TestRunResult result = runCampaign(test, target, repeatIndex, ctx);
  flushPerfBuffer(buffer, perflog);
  return result;
}

TestRunResult Pipeline::runCampaign(const RegressionTest& test,
                                    std::string_view target, int repeatIndex,
                                    const CampaignExecContext& ctx) {
  obs::ScopedSpan root(ctx.tracer, "test_run");
  root.attr("test", test.name);
  root.attr("target", target);
  root.attr("repeat", std::to_string(repeatIndex));
  if (ctx.metrics != nullptr) {
    ctx.metrics->counter("pipeline.runs").inc();
  }

  TestRunResult result = runOnce(test, target, ctx, repeatIndex, 1);
  int attempts = 1;
  // Only transient failures are retried, each stage against its own
  // budget, with exponentially growing (deterministically jittered)
  // backoff that consumes simulated time.
  std::map<std::string, int> retriesPerStage;
  std::map<std::string, double> backoffPerStage;
  double backoffTotal = 0.0;
  while (!result.passed &&
         result.failure.klass == FailureClass::kTransient) {
    const std::string stage = result.failure.stage;
    int& used = retriesPerStage[stage];
    if (used >= options_.retry.budgetFor(stage)) break;
    ++used;
    const std::string backoffKey = test.name + "|" + std::string(target) +
                                   "|" + std::to_string(repeatIndex) + "|" +
                                   stage;
    const double wait = options_.retry.backoffSeconds(backoffKey, used);
    // Watchdog cap on the ladder itself: when the cumulative backoff for
    // this stage would blow its deadline, the stage is effectively hung —
    // promote the transient failure to infrastructure instead of backing
    // off forever.
    const double stageLimit = options_.watchdog.limitFor(stage);
    if (stageLimit > 0.0 && backoffPerStage[stage] + wait > stageLimit) {
      noteWatchdog({stage, stageLimit, backoffPerStage[stage] + wait},
                   ctx.tracer, ctx.metrics);
      result.failure.klass = FailureClass::kInfrastructure;
      result.failure.detail = "watchdog: retry backoff for stage '" + stage +
                              "' exceeded its " + str::fixed(stageLimit, 1) +
                              "s deadline";
      break;
    }
    backoffPerStage[stage] += wait;
    {
      obs::ScopedSpan backoff(ctx.tracer, "backoff");
      backoff.attr("attempt", std::to_string(attempts + 1));
      backoff.attr("stage", stage);
      backoff.attr("seconds", str::fixed(wait, 6));
      if (ctx.tracer != nullptr) {
        ctx.tracer->clock().advance(wait);
      }
    }
    backoffTotal += wait;
    if (ctx.metrics != nullptr) {
      ctx.metrics->counter("pipeline.retries").inc();
      ctx.metrics
          ->histogram("pipeline.backoff_seconds", obs::stageSecondsBounds())
          .observe(wait);
    }
    result = runOnce(test, target, ctx, repeatIndex, attempts + 1);
    ++attempts;
  }
  result.attempts = attempts;
  result.simulatedPipelineSeconds += backoffTotal;

  root.attr("attempts", std::to_string(attempts));
  root.attr("outcome", result.passed ? "pass" : "fail");
  if (!result.passed) {
    root.attr("failure_stage", result.failure.stage);
    root.attr("failure_class",
              std::string(failureClassName(result.failure.klass)));
    if (ctx.metrics != nullptr) {
      ctx.metrics->counter("pipeline.failures").inc();
      ctx.metrics
          ->counter("pipeline.failures/" +
                    std::string(failureClassName(result.failure.klass)))
          .inc();
    }
  }
  return result;
}

TestRunResult Pipeline::runOnce(const RegressionTest& test,
                                std::string_view target,
                                const CampaignExecContext& ctx,
                                int repeatIndex, int attempt) {
  obs::Tracer* tracer = ctx.tracer;
  obs::MetricsRegistry* metrics = ctx.metrics;
  auto stageHistogram = [metrics](std::string_view stage) -> obs::Histogram* {
    if (metrics == nullptr) return nullptr;
    return &metrics->histogram("pipeline.stage_seconds/" + std::string(stage),
                               obs::stageSecondsBounds());
  };

  obs::ScopedSpan attemptSpan(tracer, "attempt");
  attemptSpan.attr("attempt", std::to_string(attempt));

  TestRunResult result;
  result.testName = test.name;

  const auto [system, partition] = systems_.resolve(target);
  result.system = system->name;
  result.partition = partition->name;

  // Key identifying this attempt for the fault injector: every draw is a
  // pure function of (seed, site, key), so traces replay byte-identically.
  const std::string faultKey = test.name + "|" + std::string(target) + "|" +
                               std::to_string(repeatIndex) + "|" +
                               std::to_string(attempt);
  const FaultInjector* injector =
      injector_.has_value() ? &*injector_ : nullptr;
  auto noteInjected = [tracer, metrics, &faultKey](std::string_view kind) {
    if (tracer != nullptr) {
      tracer->event("fault.inject",
                    {{"kind", std::string(kind)}, {"key", faultKey}});
    }
    if (metrics != nullptr) {
      metrics->counter("fault.injected").inc();
      metrics->counter("fault.injected/" + std::string(kind)).inc();
    }
  };

  auto fail = [&result, &attemptSpan](
                  std::string stage, std::string detail,
                  std::optional<FailureClass> klass = std::nullopt) {
    attemptSpan.attr("result", "fail");
    attemptSpan.attr("failure_stage", stage);
    result.failure.klass = klass ? *klass : classifyFailure(stage, detail);
    attemptSpan.attr("failure_class",
                     std::string(failureClassName(result.failure.klass)));
    result.failure.stage = std::move(stage);
    result.failure.detail = std::move(detail);
    result.passed = false;
    return result;
  };
  auto appendPerflog = [&ctx, metrics](const PerfLogEntry& entry) {
    ctx.perfBuffer->push_back(entry);
    if (metrics != nullptr) {
      metrics->counter("pipeline.perflog_lines").inc();
    }
  };

  // Per-stage resource accounting (--probe): a sample around build/run,
  // surfaced as a telemetry.probe span, rebench_stage_* gauges and (via
  // result.stageResources) x:rusage_* perflog extras + manifest facets.
  // Sim-mode samples are a pure function of faultKey + simulated
  // seconds, so probed campaigns stay byte-identical at any --jobs.
  const telemetry::ResourceProbe probe(options_.probe);
  auto noteProbe = [&](std::string_view stage,
                       const telemetry::ResourceProbe::Mark& mark,
                       double simSeconds) {
    if (!probe.active()) return;
    const std::string stageName(stage);
    const telemetry::ResourceSample sample =
        probe.delta(mark, faultKey + "|" + stageName, simSeconds);
    result.stageResources[stageName] = sample;
    if (tracer != nullptr) {
      obs::ScopedSpan span(tracer, "telemetry.probe");
      span.attr("stage", stageName);
      span.attr("rusage_user_ms", str::fixed(sample.userMs, 3));
      span.attr("rusage_sys_ms", str::fixed(sample.sysMs, 3));
      span.attr("rusage_maxrss_kb", std::to_string(sample.maxRssKb));
      span.attr("rusage_minflt", std::to_string(sample.minorFaults));
      span.attr("rusage_io_blocks", std::to_string(sample.ioBlocks));
    }
    if (metrics != nullptr) {
      metrics->gauge("stage.rusage_user_ms/" + stageName).set(sample.userMs);
      metrics->gauge("stage.rusage_sys_ms/" + stageName).set(sample.sysMs);
      metrics->gauge("stage.rusage_maxrss_kb/" + stageName)
          .set(static_cast<double>(sample.maxRssKb));
    }
    if (options_.bus != nullptr) {
      options_.bus->publish(
          "exec", "", "probe:" + stageName,
          {{"campaign", faultKey},
           {"rusage_user_ms", str::fixed(sample.userMs, 3)},
           {"rusage_maxrss_kb", std::to_string(sample.maxRssKb)}});
    }
  };

  // --- Stage 1: concretize (Principle 4) -------------------------------
  std::shared_ptr<const ConcreteSpec> concrete;
  {
    obs::ScopedSpan span(tracer, "concretize", stageHistogram("concretize"));
    try {
      const Spec abstract = Spec::parse(test.spackSpec);
      Concretizer concretizer(repo_, system->environment,
                              {ReusePolicy::kPreferExternal, tracer, metrics});
      ConcretizationResult cres = concretizer.concretize(abstract);
      concrete = cres.root;
      result.concretizationTrace = std::move(cres.trace);
      span.attr("decisions",
                std::to_string(result.concretizationTrace.size()));
    } catch (const Error& e) {
      span.attr("result", "error");
      return fail("concretize", e.what());
    }
  }
  result.concreteSpec = concrete;
  result.environ = concrete->compilerName.empty()
                       ? system->environment.defaultCompiler
                       : concrete->compilerName + "@" +
                             concrete->compilerVersion.toString();

  // --- Stage 2: build (Principles 2 & 3) --------------------------------
  const BuildPlan plan = makeBuildPlan(*concrete);
  const telemetry::ResourceProbe::Mark buildMark = probe.mark();
  {
    obs::ScopedSpan span(tracer, "build", stageHistogram("build"));
    if (buildCache_) {
      result.build =
          buildViaCache(plan, system->environment, ctx, attempt);
      if (result.build.stepsReusedFromCache > 0) {
        span.attr("reused", "store");
      }
    } else {
      result.build = builder_.build(plan);
    }
    result.simulatedPipelineSeconds += result.build.buildSeconds;
    // Simulated build time flows into the trace clock so the span is as
    // long as the build it records.
    if (tracer != nullptr) tracer->clock().advance(result.build.buildSeconds);
    span.attr("binary_id", result.build.binaryId.substr(0, 16));
    span.attr("steps", std::to_string(plan.steps.size()));
    if (injector != nullptr && injector->buildFlake(faultKey)) {
      noteInjected("build_flake");
      span.attr("result", "error");
      return fail("build", "injected transient build failure",
                  FailureClass::kTransient);
    }
    if (auto fired = checkStageDeadline(options_.watchdog, "build",
                                        result.build.buildSeconds)) {
      noteWatchdog(*fired, tracer, metrics);
      span.attr("result", "error");
      return fail("build", fired->failure().detail,
                  FailureClass::kInfrastructure);
    }
  }
  noteProbe("build", buildMark, result.build.buildSeconds);

  // --- Stage 3: run through the scheduler (Principle 5) ------------------
  ClusterOptions cluster;
  cluster.numNodes = partition->numNodes;
  cluster.coresPerNode = partition->processor.totalCores();
  cluster.requireAccount = partition->requiresAccount;
  cluster.validQos = {"standard"};
  SchedulerSim scheduler(cluster);
  // The scheduler's own timeline starts at zero; anchor its trace events
  // at the current trace time.
  const double schedBase = tracer != nullptr ? tracer->clock().peek() : 0.0;
  scheduler.setObservability(tracer, metrics, schedBase);

  int cpusPerTask = test.numCpusPerTask;
  if (test.useAllCoresPerTask) {
    cpusPerTask = partition->processor.totalCores();
  }

  RunContext runCtx;
  runCtx.system = system;
  runCtx.partition = partition;
  runCtx.spec = concrete;
  runCtx.binaryId = result.build.binaryId;
  runCtx.args = test.executableOpts;
  runCtx.repeatIndex = repeatIndex;

  RunOutput output;
  JobRequest request;
  request.name = test.name;
  request.numTasks = test.numTasks;
  request.numTasksPerNode = test.numTasksPerNode;
  request.numCpusPerTask = cpusPerTask;
  request.timeLimit = test.timeLimit;
  request.account = partition->requiresAccount ? options_.account : "";

  // At most one scheduler/job-level fault per attempt; node failures and
  // preemptions are executed by the scheduler, crashes by the payload.
  bool injectCrash = false;
  if (injector != nullptr) {
    const JobFaultDecision jobFault = injector->jobFault(faultKey);
    using Kind = JobFaultDecision::Kind;
    if (jobFault.kind == Kind::kNodeFailure) {
      request.fault = InjectedJobFault{InjectedJobFault::Kind::kNodeFailure,
                                       jobFault.atFraction};
      noteInjected("node_failure");
    } else if (jobFault.kind == Kind::kPreemption) {
      request.fault = InjectedJobFault{InjectedJobFault::Kind::kPreemption,
                                       jobFault.atFraction};
      noteInjected("preemption");
    } else if (jobFault.kind == Kind::kCrash) {
      injectCrash = true;
      noteInjected("job_crash");
    }
  }

  request.payload = [&](const Allocation& alloc) {
    runCtx.allocation = alloc;
    output = test.run(runCtx);
    JobOutcome outcome;
    outcome.success = !output.launchFailed && !injectCrash;
    outcome.runtimeSeconds = output.elapsedSeconds;
    outcome.stdoutText = output.stdoutText;
    return outcome;
  };

  JobId jobId = 0;
  {
    obs::ScopedSpan span(tracer, "submit", stageHistogram("submit"));
    try {
      jobId = scheduler.submit(request);
    } catch (const SchedulerError& e) {
      span.attr("result", "error");
      return fail("submit", e.what());
    }
    span.attr("job", std::to_string(jobId));
  }

  const JobInfo* job = nullptr;
  const telemetry::ResourceProbe::Mark runMark = probe.mark();
  {
    obs::ScopedSpan span(tracer, "run", stageHistogram("run"));
    scheduler.drain();
    job = &scheduler.query(jobId);
    // Queue wait + execution happened on the scheduler's simulated
    // timeline; move the trace clock to the job's end.
    if (tracer != nullptr) {
      tracer->clock().advanceTo(schedBase + job->endTime);
    }
    span.attr("job_state", std::string(jobStateName(job->state)));
    result.jobId = jobId;
    result.jobState = job->state;
    result.requeues = job->requeues;
    if (job->requeues > 0) {
      span.attr("requeues", std::to_string(job->requeues));
    }
    result.stdoutText = output.stdoutText;
    result.simulatedPipelineSeconds += job->endTime - job->submitTime;
    if (injector != nullptr && job->state == JobState::kCompleted &&
        injector->corruptStdout(faultKey)) {
      // A truncated/garbled log: the run "succeeded" but its output did
      // not survive — sanity and FOM extraction see the corrupted text.
      result.stdoutText = injector->corruptText(result.stdoutText, faultKey);
      noteInjected("stdout_corruption");
    }
  }
  noteProbe("run", runMark, job->endTime - job->submitTime);
  result.launchCommand = renderLaunchCommand(
      partition->launcher, job->allocation, test.name, test.executableOpts);
  {
    JobScriptRequest script;
    script.jobName = test.name;
    script.numTasks = job->allocation.numTasks;
    script.tasksPerNode = job->allocation.tasksPerNode;
    script.cpusPerTask = job->allocation.cpusPerTask;
    script.timeLimitSeconds = test.timeLimit;
    script.account = request.account;
    for (const BuildStep& step : plan.steps) {
      if (step.external) {
        // "module load X" -> module name.
        script.moduleLoads.push_back(step.command.substr(12));
      }
    }
    script.launchCommand = result.launchCommand;
    result.jobScript = renderJobScript(*partition, script);
  }

  // Shared provenance for every perflog record of this attempt.  The
  // timestamp stays empty here: records are stamped in canonical order
  // when the buffer is flushed, which keeps the numbering identical
  // however campaigns were scheduled.
  auto provenancedEntry = [&]() {
    PerfLogEntry entry;
    entry.system = result.system;
    entry.partition = result.partition;
    entry.environ = result.environ;
    entry.testName = test.name;
    entry.spec = concrete->shortForm();
    entry.specHash = concrete->dagHash();
    entry.binaryId = result.build.binaryId;
    entry.jobId = std::to_string(jobId);
    entry.extras["attempt"] = std::to_string(attempt);
    return entry;
  };
  // Failed attempts are data, not gaps: the failure stage, class, reason
  // and attempt number all land in the perflog so retries are auditable.
  auto logFailure = [&](const std::string& stage, const std::string& detail,
                        FailureClass klass) {
    if (ctx.perfBuffer == nullptr) return;
    PerfLogEntry entry = provenancedEntry();
    entry.fomName = stage;
    entry.value = 0.0;
    entry.unit = Unit::kNone;
    entry.result = "error";
    entry.extras["error"] = detail;
    entry.extras["failure_class"] = std::string(failureClassName(klass));
    appendPerflog(entry);
  };

  // A hung simulated stage: queue wait + execution blew the run deadline.
  if (auto fired = checkStageDeadline(options_.watchdog, "run",
                                      job->endTime - job->submitTime)) {
    noteWatchdog(*fired, tracer, metrics);
    const std::string detail = fired->failure().detail;
    logFailure("run", detail, FailureClass::kInfrastructure);
    return fail("run", detail, FailureClass::kInfrastructure);
  }

  // --- Telemetry capture (paper §4 future work) ---------------------------
  bool telemetryDropped = false;
  if (injector != nullptr && injector->dropTelemetry(faultKey)) {
    telemetryDropped = true;
    noteInjected("telemetry_dropout");
  }
  if (!telemetryDropped && !partition->machineModel.empty() &&
      job->startTime >= 0.0) {
    obs::ScopedSpan span(tracer, "telemetry", stageHistogram("telemetry"));
    const MachineModel& machine =
        builtinMachines().get(partition->machineModel);
    WorkloadProfile profile;
    profile.cpuIntensity =
        std::min(1.0, static_cast<double>(job->allocation.tasksPerNode *
                                          job->allocation.cpusPerTask) /
                          partition->processor.totalCores());
    profile.memoryIntensity = 0.85;  // the suite is bandwidth-dominated
    profile.networkMBs = 20.0 * job->allocation.numTasks;
    const double duration = std::max(job->endTime - job->startTime, 1.0);
    result.telemetry = sampleTelemetry(
        machine, profile, duration,
        result.testName + ":" + result.system + ":" + result.partition,
        {.intervalSeconds = std::max(duration / 64.0, 0.25)});
    result.contentionFlags = contendedSamples(result.telemetry);
    span.attr("samples", std::to_string(result.telemetry.samples.size()));
    span.attr("contended", std::to_string(result.contentionFlags.size()));
  }

  if (job->state != JobState::kCompleted) {
    const std::string detail = output.launchFailed
                                   ? output.failureReason
                                   : std::string(jobStateName(job->state));
    // Launch failures (unsupported model, missing hardware) are permanent
    // configuration facts; scheduler-side job states classify by name.
    const FailureClass klass = output.launchFailed
                                   ? FailureClass::kPermanent
                                   : classifyFailure("run", detail);
    // Record the failure in the perflog too: failed combinations are data
    // (the white "*" boxes of Figure 2), not gaps.
    logFailure("run", detail, klass);
    return fail("run", detail, klass);
  }

  // --- Stage 4: sanity ----------------------------------------------------
  {
    obs::ScopedSpan span(tracer, "sanity", stageHistogram("sanity"));
    if (!test.sanityPattern.empty()) {
      const std::regex sanity = compileRegex(test.sanityPattern);
      if (!std::regex_search(result.stdoutText, sanity)) {
        span.attr("result", "fail");
        const std::string detail =
            "pattern '" + test.sanityPattern + "' not found in output";
        logFailure("sanity", detail, FailureClass::kTransient);
        return fail("sanity", detail);
      }
    }
    result.sanityPassed = true;
  }

  // --- Stage 5: performance (Principle 1/6) -------------------------------
  obs::ScopedSpan perfSpan(tracer, "performance",
                           stageHistogram("performance"));
  const std::string targetKey = result.system + ":" + result.partition;
  bool allWithinReference = true;
  for (const PerfPattern& pattern : test.perfPatterns) {
    const std::regex re = compileRegex(pattern.pattern);
    std::smatch match;
    if (!std::regex_search(result.stdoutText, match, re) ||
        match.size() < 2) {
      perfSpan.attr("result", "fail");
      const std::string detail = "FOM '" + pattern.fomName +
                                 "' not found via /" + pattern.pattern + "/";
      logFailure("performance", detail, FailureClass::kTransient);
      return fail("performance", detail);
    }
    double value = 0.0;
    try {
      value = std::stod(match[1].str());
    } catch (const std::exception&) {
      perfSpan.attr("result", "fail");
      const std::string detail = "FOM '" + pattern.fomName +
                                 "' captured non-numeric '" +
                                 match[1].str() + "'";
      logFailure("performance", detail, FailureClass::kTransient);
      return fail("performance", detail);
    }
    result.foms[pattern.fomName] = value;
    if (metrics != nullptr) {
      // Canonical shard merge keeps "last set wins" deterministic, so the
      // exported gauge is the last repeat in suite order at any --jobs.
      metrics
          ->gauge("fom/" + test.name + "/" + targetKey + "/" +
                  pattern.fomName)
          .set(value);
    }

    std::optional<ReferenceValue> ref;
    if (auto sysIt = test.references.find(targetKey);
        sysIt != test.references.end()) {
      if (auto fomIt = sysIt->second.find(pattern.fomName);
          fomIt != sysIt->second.end()) {
        ref = fomIt->second;
      }
    }
    bool within = true;
    if (ref) {
      const double lo = ref->value * (1.0 + ref->lowerFrac);
      const double hi = ref->value * (1.0 + ref->upperFrac);
      within = value >= lo && value <= hi;
      if (!within) allWithinReference = false;
    }
    result.fomWithinReference[pattern.fomName] = within;

    if (ctx.perfBuffer != nullptr) {
      PerfLogEntry entry = provenancedEntry();
      entry.fomName = pattern.fomName;
      entry.value = value;
      entry.unit = pattern.unit;
      if (ref) {
        entry.reference = ref->value;
        entry.lowerThresh = ref->lowerFrac;
        entry.upperThresh = ref->upperFrac;
      }
      entry.result = within ? "pass" : "fail";
      entry.extras["num_tasks"] = std::to_string(test.numTasks);
      entry.extras["launch"] = result.launchCommand;
      if (!result.telemetry.empty()) {
        entry.extras["energy_j"] =
            str::fixed(result.telemetry.energyJoules(), 1);
        entry.extras["mean_power_w"] =
            str::fixed(result.telemetry.meanPowerWatts(), 1);
        entry.extras["contended_samples"] =
            std::to_string(result.contentionFlags.size());
      }
      if (!result.stageResources.empty()) {
        // Aggregated across probed stages: CPU times and faults add,
        // peak RSS is the max.  Serialized as x:rusage_* columns.
        double userMs = 0.0;
        double sysMs = 0.0;
        long maxRssKb = 0;
        long minorFaults = 0;
        for (const auto& [stage, sample] : result.stageResources) {
          userMs += sample.userMs;
          sysMs += sample.sysMs;
          maxRssKb = std::max(maxRssKb, sample.maxRssKb);
          minorFaults += sample.minorFaults;
        }
        entry.extras["rusage_user_ms"] = str::fixed(userMs, 3);
        entry.extras["rusage_sys_ms"] = str::fixed(sysMs, 3);
        entry.extras["rusage_maxrss_kb"] = std::to_string(maxRssKb);
        entry.extras["rusage_minflt"] = std::to_string(minorFaults);
      }
      appendPerflog(entry);
    }
  }
  perfSpan.attr("foms", std::to_string(result.foms.size()));
  perfSpan.end();

  result.passed = allWithinReference;
  if (!allWithinReference) {
    result.failure.stage = "reference";
    result.failure.klass = FailureClass::kPermanent;
    result.failure.detail = "one or more FOMs outside reference bounds";
    attemptSpan.attr("result", "fail");
    attemptSpan.attr("failure_stage", result.failure.stage);
  } else {
    attemptSpan.attr("result", "pass");
  }
  return result;
}

BuildRecord Pipeline::buildViaCache(const BuildPlan& plan,
                                    const SystemEnvironment& env,
                                    const CampaignExecContext& ctx,
                                    int attempt) {
  const std::string key = store::BuildCache::cacheKey(
      plan.rootHash, store::BuildCache::environmentFingerprint(env),
      plan.planHash());
  using Role = CampaignExecContext::BuildRole;
  Role role = Role::kDirect;
  if (ctx.resolveBuildRole) {
    std::uint64_t epoch = 0;
    role = ctx.resolveBuildRole(&epoch);
    // A follower waits for its leader's publication.  awaitBuilt returns
    // false when that leader abandoned (skipped or crashed before
    // building); re-resolving then elects a new leader — possibly us.
    while (role == Role::kFollower) {
      if (ctx.singleFlight->awaitBuilt(key, epoch)) {
        if (attempt == 1 && ctx.metrics != nullptr) {
          ctx.metrics->counter("store.singleflight_dedup").inc();
        }
        break;
      }
      role = ctx.resolveBuildRole(&epoch);
    }
    // The span is emitted once the role has settled, so its bytes depend
    // only on the canonical role, not on how many re-elections happened.
    obs::ScopedSpan sf(ctx.tracer, "store.singleflight");
    sf.attr("key", key);
    sf.attr("role", role == Role::kLeader     ? "leader"
                    : role == Role::kFollower ? "follower"
                                              : "cached");
  }

  if (role == Role::kLeader && attempt == 1) {
    // The leader of a cold key *knows* the store has no verified record;
    // record the miss without probing so concurrent followers never see a
    // half-published entry, then build and publish.
    buildCache_->recordMiss(key, ctx.tracer, ctx.metrics);
    BuildRecord record = builder_.build(plan);
    buildCache_->insert(key, record, ctx.tracer);
    if (ctx.singleFlight != nullptr) ctx.singleFlight->publish(key);
    return record;
  }

  if (std::optional<BuildRecord> hit =
          buildCache_->lookup(key, plan, ctx.tracer, ctx.metrics)) {
    return *hit;
  }
  BuildRecord record = builder_.build(plan);
  buildCache_->insert(key, record, ctx.tracer);
  return record;
}

}  // namespace rebench
