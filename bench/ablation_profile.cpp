// Experiment E15 (extension) — trace analytics & profiling engine.
//
// A large synthetic campaign trace (1024 stamped exec.worker spans with
// nested build/run children, spread over 8 virtual lanes, one in four
// blocked behind a single-flight follower wait) is pushed through every
// post-processing stage: JSONL parse, lane-schedule reconstruction,
// critical-path extraction, chrome trace-event export and trace diff.
// The microbenchmarks quantify per-stage cost; reproduceAblation()
// checks the invariants the paper's reproducibility argument rests on —
// the critical path length equals the profiled makespan exactly, a
// self-diff is empty, and every renderer is byte-stable on re-render.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "core/obs/trace.hpp"
#include "core/obs/trace_reader.hpp"
#include "core/postproc/chrome_export.hpp"
#include "core/postproc/critical_path.hpp"
#include "core/postproc/profile.hpp"
#include "core/util/strings.hpp"

namespace {

using namespace rebench;
using namespace rebench::postproc;

constexpr int kWorkers = 1024;
constexpr int kLanes = 8;

// One stamped worker span, shaped like the executor's output: nested
// build + run children, an optional single-flight follower wait, and
// post-hoc lane/sim_seconds annotations.
void addWorkerSpan(obs::Tracer& tracer, int index, double simSeconds,
                   bool blocked) {
  const std::string id = tracer.beginSpan("exec.worker");
  tracer.setAttr("campaign", std::to_string(index));
  tracer.setAttr("test", std::string("E15Synthetic")
                             .append(std::to_string(index % 16)));
  tracer.setAttr("target", "archer2:compute");
  tracer.setAttr("repeat", std::to_string(index % 2));
  if (blocked) {
    tracer.beginSpan("store.singleflight");
    tracer.setAttr("key", std::string("k").append(std::to_string(index % 8)));
    tracer.setAttr("role", "follower");
    tracer.clock().advance(0.5);
    tracer.endSpan();
  }
  tracer.beginSpan("build");
  tracer.clock().advance(simSeconds * 0.25);
  tracer.endSpan();
  tracer.beginSpan("run");
  tracer.clock().advance(simSeconds * 0.75);
  tracer.endSpan();
  tracer.endSpan();
  tracer.annotateCompleted(id, "lane", std::to_string(index % kLanes));
  tracer.annotateCompleted(id, "sim_seconds", str::fixed(simSeconds, 6));
}

std::string syntheticTraceJsonl() {
  obs::Tracer tracer;
  for (int i = 0; i < kWorkers; ++i) {
    // Deterministic but uneven durations so lanes finish at different
    // times and the critical path is a real longest chain.
    const double sim = 4.0 + static_cast<double>((i * 7) % 23);
    addWorkerSpan(tracer, i, sim, i % 4 == 0);
  }
  return tracer.toJsonl();
}

const std::string& traceJsonl() {
  static const std::string jsonl = syntheticTraceJsonl();
  return jsonl;
}

const obs::TraceFile& trace() {
  static const obs::TraceFile parsed = obs::parseTraceJsonl(traceJsonl());
  return parsed;
}

void BM_ParseTraceJsonl(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::parseTraceJsonl(traceJsonl()));
  }
}
BENCHMARK(BM_ParseTraceJsonl)->Unit(benchmark::kMillisecond);

void BM_ProfileTrace(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(profileTrace(trace()));
  }
}
BENCHMARK(BM_ProfileTrace)->Unit(benchmark::kMillisecond);

void BM_CriticalPath(benchmark::State& state) {
  const TraceProfile profile = profileTrace(trace());
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractCriticalPath(trace(), profile));
  }
}
BENCHMARK(BM_CriticalPath)->Unit(benchmark::kMillisecond);

void BM_ChromeExport(benchmark::State& state) {
  const TraceProfile profile = profileTrace(trace());
  for (auto _ : state) {
    benchmark::DoNotOptimize(renderChromeTrace(trace(), profile));
  }
}
BENCHMARK(BM_ChromeExport)->Unit(benchmark::kMillisecond);

void BM_TraceDiff(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(diffTraces(trace(), trace()));
  }
}
BENCHMARK(BM_TraceDiff)->Unit(benchmark::kMillisecond);

void reproduceAblation() {
  const obs::TraceFile& file = trace();
  const TraceProfile profile = profileTrace(file);
  const CriticalPathReport critical = extractCriticalPath(file, profile);
  const TraceDiff self = diffTraces(file, file);

  std::cout << "\nE15: " << kWorkers << " worker spans over " << kLanes
            << " lanes -> makespan " << str::fixed(profile.makespanSeconds, 6)
            << " s, serial " << str::fixed(profile.serialSeconds, 6)
            << " s, critical path " << critical.steps.size() << " unit(s) on lane "
            << critical.lane << ".\n";
  std::cout << (critical.lengthSeconds == profile.makespanSeconds ? "PASS"
                                                                  : "FAIL")
            << ": critical path length equals profiled makespan exactly ("
            << str::fixed(critical.lengthSeconds, 6) << " s).\n";
  std::cout << (self.identical() && self.regressions() == 0 ? "PASS" : "FAIL")
            << ": self-diff reports identical traces with zero regressions.\n";
  const bool stable =
      renderProfile(profile) == renderProfile(profileTrace(file)) &&
      renderChromeTrace(file, profile) == renderChromeTrace(file, profile) &&
      profileJson(profile) == profileJson(profileTrace(file));
  std::cout << (stable ? "PASS" : "FAIL")
            << ": profile, JSON and chrome renderers are byte-stable on "
               "re-render.\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  reproduceAblation();
  return 0;
}
