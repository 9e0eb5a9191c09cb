// Experiment E10 — Principle 6: programmatic post-processing.
//
// Generates perflogs the way the paper's framework does — one file per
// system, written on "isolated machines" — then assimilates them into a
// single DataFrame, filters, aggregates and renders plots.  Determinism is
// demonstrated by running the whole chain twice and comparing the CSV
// byte-for-byte (the property hand-curated spreadsheets cannot offer).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "babelstream/testcase.hpp"
#include "core/framework/pipeline.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/postproc/plot.hpp"
#include "core/util/strings.hpp"
#include "core/util/table.hpp"

namespace {

using namespace rebench;

void BM_PerflogParse(benchmark::State& state) {
  PerfLogEntry entry;
  entry.system = "archer2";
  entry.testName = "BabelstreamTest_omp";
  entry.fomName = "Triad";
  entry.value = 123456.789;
  entry.unit = Unit::kMBperSec;
  entry.result = "pass";
  const std::string line = entry.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PerfLogEntry::parse(line));
  }
}
BENCHMARK(BM_PerflogParse);

void BM_DataFramePivot(benchmark::State& state) {
  DataFrame frame;
  DataFrame::StringColumn a, b;
  DataFrame::NumericColumn v;
  for (int i = 0; i < 1000; ++i) {
    a.push_back("row" + std::to_string(i % 10));
    b.push_back("col" + std::to_string(i % 7));
    v.push_back(i);
  }
  frame.addStrings("a", std::move(a));
  frame.addStrings("b", std::move(b));
  frame.addNumeric("v", std::move(v));
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.pivot("a", "b", "v"));
  }
}
BENCHMARK(BM_DataFramePivot);

std::string runChainOnce(const std::string& tag) {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  Pipeline pipeline(systems, repo);

  const auto dir = std::filesystem::temp_directory_path();
  std::vector<std::string> paths;

  // Each system writes its own perflog, as if generated in isolation.
  for (const char* target : {"archer2", "csd3", "noctua2"}) {
    const std::string path =
        (dir / ("rebench_" + tag + "_" + target + ".log")).string();
    std::remove(path.c_str());
    PerfLog log(path);
    for (const char* model : {"omp", "std-ranges", "tbb"}) {
      babelstream::BabelstreamTestOptions options;
      options.model = model;
      options.ntimes = 20;
      pipeline.runOne(babelstream::makeBabelstreamTest(options), target,
                      &log);
    }
    paths.push_back(path);
  }

  // Assimilate -> filter -> aggregate (the Figure 1 "Analysis" step).
  const DataFrame frame = assimilatePerflogs(paths);
  const DataFrame triad = frame.filterEquals("fom", "Triad")
                              .filterEquals("result", "pass");
  const std::array<std::string, 2> keys{"system", "test"};
  const DataFrame summary =
      triad.groupBy(keys, "value", Agg::kMean).sortBy("system");
  for (const std::string& path : paths) std::remove(path.c_str());
  return summary.toCsv();
}

void reproduceAblation() {
  const std::string first = runChainOnce("a");
  const std::string second = runChainOnce("b");

  std::cout << "\nAssimilated cross-system summary (Triad MB/s):\n"
            << first;
  std::cout << "\nDeterministic re-aggregation: the full perflog->frame->"
               "summary chain run twice produced "
            << (first == second ? "IDENTICAL" : "DIFFERENT")
            << " CSV output ("
            << first.size() << " bytes).\n";

  // And the plotting path.
  const DataFrame frame = DataFrame::fromCsv(first);
  std::vector<std::string> labels;
  std::vector<double> values;
  for (std::size_t i = 0; i < frame.rowCount(); ++i) {
    labels.push_back(frame.strings("system")[i] + "/" +
                     str::replaceAll(frame.strings("test")[i],
                                     "BabelstreamTest_", ""));
    values.push_back(frame.numeric("value")[i] / 1.0e3);
  }
  std::cout << "\n"
            << renderBarChart(labels, values,
                              {.title = "Triad by system and model",
                               .width = 40,
                               .valueSuffix = " GB/s",
                               .maxValue = {}});
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  reproduceAblation();
  return 0;
}
