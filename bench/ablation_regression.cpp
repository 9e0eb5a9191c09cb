// Experiment E11 (extension, paper §4) — cross-system performance
// regression testing as a CI pipeline.
//
// Simulates a nightly CI run of BabelStream across three systems over 30
// "days".  On day 20 one system suffers a silent platform degradation
// (a BIOS/firmware change halving its sustained bandwidth fraction) —
// invisible to correctness tests, caught by the perflog-history detector.
#include <benchmark/benchmark.h>

#include <iostream>

#include "babelstream/testcase.hpp"
#include "core/framework/pipeline.hpp"
#include "core/postproc/regression.hpp"
#include "core/util/rng.hpp"
#include "core/util/strings.hpp"
#include "core/util/table.hpp"

namespace {

using namespace rebench;

void BM_DetectOverLongHistory(benchmark::State& state) {
  PerfHistory history;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    PerfLogEntry entry;
    entry.timestamp = std::string("T").append(std::to_string(i));
    entry.system = "archer2";
    entry.partition = "compute";
    entry.testName = 't';
    entry.fomName = "Triad";
    entry.value = 100.0 * rng.noiseFactor(0.01);
    entry.result = "pass";
    history.add(entry);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(history.detect());
  }
}
BENCHMARK(BM_DetectOverLongHistory);

void reproduceCiScenario() {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  Pipeline pipeline(systems, repo);

  const int kDays = 30;
  const int kDegradationDay = 20;
  PerfHistory history;

  for (int day = 0; day < kDays; ++day) {
    for (const char* target : {"archer2", "csd3", "noctua2"}) {
      babelstream::BabelstreamTestOptions options;
      options.model = "omp";
      options.ntimes = 20;
      PerfLog log;
      const TestRunResult result = pipeline.runOne(
          babelstream::makeBabelstreamTest(options), target, &log);
      if (!result.passed) continue;
      for (const std::string& line : log.lines()) {
        PerfLogEntry entry = PerfLogEntry::parse(line);
        if (entry.fomName != "Triad") continue;
        entry.timestamp = std::string("day").append(std::to_string(day));
        // Day-to-day machine-room noise...
        Rng noise = Rng::fromKey("ci:" + std::string(target) + ":" +
                                 std::to_string(day));
        entry.value *= noise.noiseFactor(0.012);
        // ...and csd3's silent degradation after its maintenance window.
        if (std::string(target) == "csd3" && day >= kDegradationDay) {
          entry.value *= 0.88;
        }
        history.add(entry);
      }
    }
  }

  const std::vector<RegressionEvent> events = history.detect();
  AsciiTable table("CI regression events over 30 nightly runs:");
  table.setHeader({"series", "day", "value", "expected", "deviation"});
  for (const RegressionEvent& event : events) {
    table.addRow({event.key.toString(), event.point.timestamp,
                  str::fixed(event.point.value, 0),
                  str::fixed(event.expected, 0),
                  str::fixed(event.deviation * 100.0, 1) + "%"});
  }
  std::cout << "\n" << table.render();

  bool caught = false;
  for (const RegressionEvent& event : events) {
    caught |= event.key.system == "csd3" &&
              event.point.timestamp == "day" +
                                           std::to_string(kDegradationDay);
  }
  std::cout << "\nInjected 12% degradation on csd3 at day "
            << kDegradationDay << ": "
            << (caught ? "DETECTED on the first degraded run"
                       : "NOT DETECTED")
            << "; other systems raised "
            << std::count_if(events.begin(), events.end(),
                             [](const RegressionEvent& e) {
                               return e.key.system != "csd3";
                             })
            << " false alarms.\n";

  const SeriesKey csd3Key{"csd3", "cclake", "BabelstreamTest_omp", "Triad"};
  if (history.has(csd3Key)) {
    std::cout << "\n"
              << renderHistoryPlot(history.series(csd3Key), events,
                                   "csd3 Triad MB/s over 30 days");
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  reproduceCiScenario();
  return 0;
}
