#include "core/framework/executor.hpp"

#include <algorithm>
#include <set>

#include "core/obs/trace.hpp"
#include "core/telemetry/bus.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"
#include "parallel/thread_pool.hpp"

namespace rebench {

std::vector<TestRunResult> Pipeline::runAll(
    std::span<const RegressionTest> tests,
    std::span<const std::string> targets, PerfLog* perflog,
    RunJournal* journal, CampaignReport* report) {
  CampaignExecutor executor(*this, options_.jobs);
  return executor.run(tests, targets, perflog, journal, report);
}

std::vector<TestRunResult> Pipeline::runWindows(
    std::span<const RegressionTest> tests,
    std::span<const std::string> targets,
    const std::map<std::string, RepeatWindow>& windows,
    std::optional<RepeatWindow> defaultWindow, PerfLog* perflog,
    RunJournal* journal, CampaignReport* report) {
  CampaignExecutor executor(*this, options_.jobs);
  executor.setWindows(&windows, defaultWindow);
  return executor.run(tests, targets, perflog, journal, report);
}

void CampaignExecutor::setWindows(
    const std::map<std::string, RepeatWindow>* windows,
    std::optional<RepeatWindow> defaultWindow) {
  windows_ = windows;
  defaultWindow_ = defaultWindow;
  windowed_ = true;
}

CampaignExecutor::CampaignExecutor(Pipeline& pipeline, int jobs)
    : pipeline_(pipeline),
      jobs_(std::max(1, jobs)),
      pairBreaker_(pipeline.options_.breaker.pairThreshold),
      partitionBreaker_(pipeline.options_.breaker.partitionThreshold) {}

void CampaignExecutor::enumerate(std::span<const RegressionTest> tests,
                                 std::span<const std::string> targets) {
  for (const std::string& target : targets) {
    const auto [system, partition] = pipeline_.systems_.resolve(target);
    const std::string partitionKey = system->name + ":" + partition->name;
    for (const RegressionTest& test : tests) {
      if (!test.matchesTarget(system->name, partition->name)) continue;
      int repeatBegin = 0;
      int repeatEnd = pipeline_.options_.numRepeats;
      if (windowed_) {
        const auto window = windows_->find(test.name + "@" + partitionKey);
        if (window != windows_->end()) {
          repeatBegin = window->second.begin;
          repeatEnd = window->second.end;
        } else if (defaultWindow_) {
          repeatBegin = defaultWindow_->begin;
          repeatEnd = defaultWindow_->end;
        } else {
          continue;
        }
      }
      for (int repeat = repeatBegin; repeat < repeatEnd; ++repeat) {
        if (journal_ != nullptr &&
            journal_->contains(test.name, target, repeat)) {
          ++report_->skippedJournaled;
          continue;
        }
        Unit unit;
        unit.index = units_.size();
        unit.test = &test;
        unit.target = target;
        unit.systemName = system->name;
        unit.partitionName = partition->name;
        unit.partitionKey = partitionKey;
        unit.pairKey = test.name + "@" + partitionKey;
        unit.repeat = repeat;
        units_.push_back(std::move(unit));
      }
    }
  }
}

void CampaignExecutor::classifyBuildKeys() {
  if (!pipeline_.buildCache_) return;
  // Silent pre-pass: concretize each (test, system) once — no spans, no
  // metrics, no store touches — to learn every campaign's provenance key
  // before anything runs.  Keys already verified in the store are warm
  // (plain cache hits, no single-flight); cold keys get leader election.
  std::map<std::string, std::optional<BuildPlan>> planMemo;
  std::map<std::string, std::string> envFpMemo;
  for (Unit& unit : units_) {
    const auto [system, partition] = pipeline_.systems_.resolve(unit.target);
    const std::string memoKey = unit.test->name + "|" + system->name;
    auto planIt = planMemo.find(memoKey);
    if (planIt == planMemo.end()) {
      std::optional<BuildPlan> plan;
      try {
        const Spec abstract = Spec::parse(unit.test->spackSpec);
        Concretizer concretizer(pipeline_.repo_, system->environment);
        plan = makeBuildPlan(*concretizer.concretize(abstract).root);
      } catch (const Error&) {
        // The campaign itself will fail at its concretize stage; leave
        // the key empty so no one waits on a build that cannot start.
      }
      planIt = planMemo.emplace(memoKey, std::move(plan)).first;
    }
    if (!planIt->second) continue;
    const BuildPlan& plan = *planIt->second;
    auto envIt = envFpMemo.find(system->name);
    if (envIt == envFpMemo.end()) {
      envIt = envFpMemo
                  .emplace(system->name,
                           store::BuildCache::environmentFingerprint(
                               system->environment))
                  .first;
    }
    unit.buildKey = store::BuildCache::cacheKey(plan.rootHash,
                                                envIt->second,
                                                plan.planHash());
    std::vector<std::size_t>& users = users_[unit.buildKey];
    if (users.empty() &&
        pipeline_.buildCache_->peek(unit.buildKey, plan)) {
      warmKeys_.insert(unit.buildKey);
    }
    users.push_back(unit.index);
  }
}

bool CampaignExecutor::allowedLocked(const Unit& unit) const {
  return pairBreaker_.allows(unit.pairKey) &&
         partitionBreaker_.allows(unit.partitionKey);
}

CampaignExecContext::BuildRole CampaignExecutor::roleForLocked(
    const Unit& unit) const {
  using Role = CampaignExecContext::BuildRole;
  if (unit.buildKey.empty()) return Role::kDirect;
  if (warmKeys_.contains(unit.buildKey)) return Role::kCached;
  // First live user in canonical order leads; everyone later follows.
  // Units are submitted in canonical order and the pool starts tasks in
  // submission order (whichever worker or helping waiter pops them), so a
  // follower's leader has always at least started — no waiting on a
  // never-scheduled build.  Start order is all this needs: the leader
  // runs to completion on the thread that popped it, since no unit waits
  // on this pool.
  for (const std::size_t index : users_.at(unit.buildKey)) {
    const Unit& candidate = units_[index];
    if (candidate.status == Unit::Status::kSkipped) continue;
    return index == unit.index ? Role::kLeader : Role::kFollower;
  }
  return Role::kLeader;
}

void CampaignExecutor::reconcileLocked() {
  while (frontier_ < units_.size()) {
    Unit& unit = units_[frontier_];
    if (unit.status == Unit::Status::kPending ||
        unit.status == Unit::Status::kRunning) {
      return;
    }
    const bool skipped = unit.status == Unit::Status::kSkipped;
    if (skipped && unit.crashed) {
      // Crash: the exception is propagating out of run(); nothing is
      // journaled, the frontier just moves past the wreck.
      ++frontier_;
      continue;
    }
    if (skipped || !allowedLocked(unit)) {
      // Quarantined under the canonical schedule.  A speculatively
      // executed result (status kDone) is discarded: the serial
      // executor would never have run it.
      unit.quarantined = true;
      unit.openKey = pairBreaker_.allows(unit.pairKey) ? unit.partitionKey
                                                       : unit.pairKey;
      ++report_->quarantined;
      if (journal_ != nullptr) {
        journal_->record(unit.test->name, unit.target, unit.repeat,
                         "quarantined", "quarantine", 0);
      }
    } else {
      ++report_->executed;
      const bool infra =
          !unit.result.passed &&
          unit.result.failure.klass == FailureClass::kInfrastructure;
      if (infra) {
        if (pairBreaker_.recordFailure(unit.pairKey)) {
          report_->quarantinedKeys.push_back(unit.pairKey);
        }
        if (partitionBreaker_.recordFailure(unit.partitionKey)) {
          report_->quarantinedKeys.push_back(unit.partitionKey);
        }
      } else {
        pairBreaker_.recordSuccess(unit.pairKey);
        partitionBreaker_.recordSuccess(unit.partitionKey);
      }
      if (journal_ != nullptr) {
        journal_->record(unit.test->name, unit.target, unit.repeat,
                         unit.result.passed ? "pass" : "fail",
                         unit.result.failure.stage, unit.result.attempts);
      }
    }
    ++frontier_;
  }
}

void CampaignExecutor::runUnit(Unit& unit, bool forceLeader) {
  unit.tracer = std::make_unique<obs::Tracer>();
  unit.metrics = std::make_unique<obs::MetricsRegistry>();
  unit.perfBuffer.clear();

  CampaignExecContext ctx;
  ctx.tracer = unit.tracer.get();
  ctx.metrics = unit.metrics.get();
  ctx.perfBuffer = perflog_ != nullptr ? &unit.perfBuffer : nullptr;
  if (!unit.buildKey.empty()) {
    ctx.singleFlight = &singleFlight_;
    if (forceLeader) {
      ctx.resolveBuildRole = [](std::uint64_t* epoch) {
        *epoch = 0;
        return CampaignExecContext::BuildRole::kLeader;
      };
    } else {
      ctx.resolveBuildRole = [this, &unit](std::uint64_t* epoch) {
        std::lock_guard lock(mutex_);
        const auto role = roleForLocked(unit);
        unit.executedRole = role;
        *epoch = singleFlight_.epoch(unit.buildKey);
        return role;
      };
    }
  }

  obs::ScopedSpan worker(ctx.tracer, "exec.worker");
  unit.workerSpanId = worker.id();
  unit.observedLane = ThreadPool::currentLane();
  worker.attr("campaign", std::to_string(unit.index));
  worker.attr("test", unit.test->name);
  worker.attr("target", unit.target);
  worker.attr("repeat", std::to_string(unit.repeat));
  // Live telemetry only: bus events never land in campaign artifacts,
  // so publishing from any worker at any interleaving is safe.
  telemetry::EventBus* bus = pipeline_.options_.bus;
  if (bus != nullptr) {
    bus->publish("exec", "", "campaign-start",
                 {{"test", unit.test->name},
                  {"target", unit.target},
                  {"repeat", std::to_string(unit.repeat)}});
  }
  unit.result = pipeline_.runCampaign(*unit.test, unit.target, unit.repeat,
                                      ctx);
  if (bus != nullptr) {
    bus->publish("exec", "", "campaign-finish",
                 {{"test", unit.test->name},
                  {"target", unit.target},
                  {"repeat", std::to_string(unit.repeat)},
                  {"outcome", unit.result.passed ? "pass" : "fail"}});
  }
  worker.end();
  if (ctx.metrics != nullptr) {
    ctx.metrics->counter("exec.campaigns").inc();
  }
}

void CampaignExecutor::executeUnit(Unit& unit) {
  {
    std::lock_guard lock(mutex_);
    reconcileLocked();
    if (frontier_ == unit.index && !allowedLocked(unit)) {
      // Authoritative skip: every earlier unit is reconciled, so the
      // breaker state is canonical and this tuple is quarantined for
      // real — never executed, and its key (if led by us) re-elected.
      unit.status = Unit::Status::kSkipped;
      if (!unit.buildKey.empty()) singleFlight_.abandon(unit.buildKey);
      reconcileLocked();
      return;
    }
    unit.status = Unit::Status::kRunning;
  }
  try {
    runUnit(unit, /*forceLeader=*/false);
  } catch (...) {
    std::lock_guard lock(mutex_);
    unit.status = Unit::Status::kSkipped;
    unit.crashed = true;
    if (!unit.buildKey.empty()) singleFlight_.abandon(unit.buildKey);
    reconcileLocked();
    throw;
  }
  std::lock_guard lock(mutex_);
  unit.status = Unit::Status::kDone;
  reconcileLocked();
}

void CampaignExecutor::stampProfileLanes() {
  // Same greedy list schedule the makespan model uses, but over the
  // jobs-invariant profileLanes width: each executed campaign, in
  // canonical order, lands on the virtual lane that frees up first.
  // The stamped attributes let `rebench profile` reconstruct the
  // schedule (lane chaining), its utilization and its critical path
  // from the trace alone.
  const std::size_t lanes = static_cast<std::size_t>(
      std::max(1, pipeline_.options_.profileLanes));
  std::vector<double> laneFree(lanes, 0.0);
  for (Unit& unit : units_) {
    if (unit.status != Unit::Status::kDone || unit.quarantined) continue;
    const auto earliest = std::min_element(laneFree.begin(), laneFree.end());
    const std::size_t lane =
        static_cast<std::size_t>(earliest - laneFree.begin());
    *earliest += unit.result.simulatedPipelineSeconds;
    if (!unit.tracer || unit.workerSpanId.empty()) continue;
    unit.tracer->annotateCompleted(unit.workerSpanId, "lane",
                                   std::to_string(lane));
    unit.tracer->annotateCompleted(
        unit.workerSpanId, "sim_seconds",
        str::fixed(unit.result.simulatedPipelineSeconds, 6));
  }
}

void CampaignExecutor::repairLeaderRoles() {
  using Role = CampaignExecContext::BuildRole;
  for (const auto& [key, userIndices] : users_) {
    if (warmKeys_.contains(key)) continue;
    // The canonical leader is the first accepted user.  A speculative
    // schedule may have let it run as a follower (its runtime leader was
    // later discarded as quarantined); re-execute it with a forced
    // leader role so its shard carries the bytes the serial schedule
    // would have produced.  Follower/cached shards are leader-agnostic,
    // so no one else needs repair.
    for (const std::size_t index : userIndices) {
      Unit& unit = units_[index];
      if (unit.status != Unit::Status::kDone || unit.quarantined) continue;
      if (unit.executedRole != Role::kLeader) {
        runUnit(unit, /*forceLeader=*/true);
      }
      break;
    }
  }
}

std::vector<TestRunResult> CampaignExecutor::run(
    std::span<const RegressionTest> tests,
    std::span<const std::string> targets, PerfLog* perflog,
    RunJournal* journal, CampaignReport* report) {
  CampaignReport local;
  perflog_ = perflog;
  journal_ = journal;
  report_ = report != nullptr ? report : &local;

  enumerate(tests, targets);
  classifyBuildKeys();

  // Workers record into per-campaign shards; the pipeline's store hooks
  // are detached for the duration so no store event can race onto the
  // main tracer mid-campaign (evictions re-surface after the merge).
  PipelineOptions& options = pipeline_.options_;
  if (options.store != nullptr) {
    options.store->setObservability(nullptr, nullptr);
  }

  if (jobs_ == 1 || units_.size() <= 1) {
    for (Unit& unit : units_) executeUnit(unit);
  } else {
    ThreadPool pool(std::min<std::size_t>(
        static_cast<std::size_t>(jobs_), units_.size()));
    TaskGroup group(pool);
    for (Unit& unit : units_) {
      group.run([this, &unit] { executeUnit(unit); });
    }
    group.wait();  // rethrows the first campaign crash, like serial did
  }
  repairLeaderRoles();
  stampProfileLanes();

  // ---- Canonical emission (single-threaded, suite order) ----------------
  std::vector<TestRunResult> results;
  results.reserve(units_.size());
  for (Unit& unit : units_) {
    if (unit.quarantined) {
      TestRunResult skipped;
      skipped.testName = unit.test->name;
      skipped.system = unit.systemName;
      skipped.partition = unit.partitionName;
      skipped.quarantined = true;
      skipped.passed = false;
      skipped.attempts = 0;
      skipped.failure = {"quarantine", FailureClass::kInfrastructure,
                         "circuit open for " + unit.openKey +
                             " after consecutive infrastructure failures"};
      if (options.tracer != nullptr) {
        options.tracer->event("fault.quarantine",
                              {{"key", unit.openKey},
                               {"test", unit.test->name},
                               {"target", unit.target}});
      }
      if (options.metrics != nullptr) {
        options.metrics->counter("fault.quarantined").inc();
      }
      results.push_back(std::move(skipped));
      continue;
    }
    if (options.tracer != nullptr && unit.tracer) {
      options.tracer->absorb(*unit.tracer);
    }
    if (options.metrics != nullptr && unit.metrics) {
      options.metrics->merge(*unit.metrics);
    }
    pipeline_.flushPerfBuffer(unit.perfBuffer, perflog_);
    results.push_back(std::move(unit.result));
  }

  if (options.store != nullptr) {
    options.store->setObservability(options.tracer, options.metrics);
  }

  // ---- Campaign-level accounting ----------------------------------------
  std::uint64_t deduped = 0;
  for (const auto& [key, userIndices] : users_) {
    if (warmKeys_.contains(key)) continue;
    std::size_t accepted = 0;
    for (const std::size_t index : userIndices) {
      const Unit& unit = units_[index];
      if (unit.status == Unit::Status::kDone && !unit.quarantined) {
        ++accepted;
      }
    }
    if (accepted == 0) continue;
    ++report_->uniqueBuilds;
    deduped += accepted - 1;
  }
  report_->dedupedBuilds += deduped;
  if (pipeline_.buildCache_ && deduped > 0) {
    pipeline_.buildCache_->noteSingleFlightDeduped(deduped);
  }
  // Simulated makespan: greedy list schedule of the executed campaigns
  // over `jobs` virtual workers, in canonical order.  The container this
  // runs in may have a single hardware core, so speedup claims are made
  // on the simulated timeline the pipeline already models.
  std::vector<double> workerBusy(static_cast<std::size_t>(jobs_), 0.0);
  for (const Unit& unit : units_) {
    if (unit.status != Unit::Status::kDone || unit.quarantined) continue;
    report_->simulatedSerialSeconds += unit.result.simulatedPipelineSeconds;
    auto earliest = std::min_element(workerBusy.begin(), workerBusy.end());
    *earliest += unit.result.simulatedPipelineSeconds;
  }
  report_->simulatedMakespanSeconds =
      *std::max_element(workerBusy.begin(), workerBusy.end());
  // Diagnostic only: which physical pool lanes the campaigns actually
  // landed on (−1 = a helping caller thread).  Scheduling-dependent by
  // nature, hence reported but never serialized.
  std::set<int> lanesSeen;
  for (const Unit& unit : units_) {
    if (unit.status != Unit::Status::kDone || unit.quarantined) continue;
    lanesSeen.insert(unit.observedLane);
  }
  report_->workerLanesTouched = lanesSeen.size();

  return results;
}

}  // namespace rebench
