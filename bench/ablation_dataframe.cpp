// Experiment E17 (extension) — columnar dataframe engine.
//
// A synthetic million-row perflog corpus (6 systems x 8 tests x 4 FOMs,
// rows clustered by system the way per-shard assimilation produces them)
// is pushed through both dataframe engines: the frozen row engine
// (legacy::RowFrame, the pre-refactor implementation kept verbatim) and
// the columnar engine behind the DataFrame façade.  The microbenchmarks
// quantify per-kernel cost at 100k rows; reproduceAblation() checks the
// claims the refactor was sold on — >=10x on group-by and per-group
// percentiles at 1M rows, zone-map chunk skipping on clustered
// predicates, and bit-identical results from both engines — then writes
// BENCH_dataframe.json.  Both engines run single-threaded, so the
// speedups are ratios of thread-CPU time (CLOCK_THREAD_CPUTIME_ID):
// time the thread spent descheduled on a busy machine does not count.
#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/postproc/columnar/arena.hpp"
#include "core/postproc/columnar/kernels.hpp"
#include "core/postproc/dataframe.hpp"
#include "core/postproc/stats.hpp"
#include "core/util/strings.hpp"
#include "legacy_rowframe.hpp"

namespace {

using namespace rebench;

constexpr std::size_t kRows = 1'000'000;
constexpr std::size_t kMicroRows = 100'000;

const char* kSystems[] = {"archer2",  "csd3",    "cirrus",
                          "isambard", "noctua2", "cosma8"};
const char* kTests[] = {"stream",  "hpcg",     "hpgmg",   "sombrero",
                        "babelstream", "osu_bw", "osu_lat", "minisweep"};
const char* kFoms[] = {"bandwidth", "latency", "flops", "walltime"};

/// Deterministic corpus, clustered by system: each system's rows are
/// contiguous (that is what concatenating per-shard perflogs yields), so
/// an equality probe on `system` exercises zone-map chunk skipping.
struct Corpus {
  std::vector<std::string> systems, tests, foms;
  std::vector<double> values;
};

Corpus makeCorpus(std::size_t rows) {
  Corpus corpus;
  corpus.systems.reserve(rows);
  corpus.tests.reserve(rows);
  corpus.foms.reserve(rows);
  corpus.values.reserve(rows);
  std::uint64_t state = 0x243f6a8885a308d3ull;
  const std::size_t perSystem = rows / 6;
  for (std::size_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    corpus.systems.push_back(kSystems[std::min<std::size_t>(
        i / perSystem, 5)]);
    corpus.tests.push_back(kTests[(state >> 33) % 8]);
    corpus.foms.push_back(kFoms[(state >> 17) % 4]);
    corpus.values.push_back(static_cast<double>(state % 10'000'000) / 997.0);
  }
  return corpus;
}

DataFrame columnarFrame(const Corpus& corpus) {
  DataFrame frame;
  frame.addStrings("system", corpus.systems);
  frame.addStrings("test", corpus.tests);
  frame.addStrings("fom", corpus.foms);
  frame.addNumeric("value", corpus.values);
  return frame;
}

legacy::RowFrame rowFrame(const Corpus& corpus) {
  legacy::RowFrame frame;
  frame.addStrings("system", corpus.systems);
  frame.addStrings("test", corpus.tests);
  frame.addStrings("fom", corpus.foms);
  frame.addNumeric("value", corpus.values);
  return frame;
}

const std::vector<std::string> kGroupKeys = {"system", "test", "fom"};

/// Per-group percentiles the way the row engine would have computed them:
/// composite vector<string> keys into a std::map (the idiom of
/// RowFrame::groupBy) and one stats::percentile call — one sort of a
/// scratch copy — per requested percentile.
std::vector<double> rowEnginePercentiles(const legacy::RowFrame& frame,
                                         std::span<const double> ps) {
  const auto& values = frame.numeric("value");
  std::vector<const std::vector<std::string>*> keys;
  for (const std::string& key : kGroupKeys) keys.push_back(&frame.strings(key));
  std::map<std::vector<std::string>, std::vector<double>> groups;
  std::vector<const std::vector<double>*> order;
  for (std::size_t i = 0; i < frame.rowCount(); ++i) {
    std::vector<std::string> key;
    key.reserve(keys.size());
    for (const auto* col : keys) key.push_back((*col)[i]);
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) order.push_back(&it->second);
    it->second.push_back(values[i]);
  }
  std::vector<double> out;
  out.reserve(order.size() * ps.size());
  for (const auto* group : order) {
    for (const double p : ps) out.push_back(rebench::percentile(*group, p));
  }
  return out;
}

// ---- microbenchmarks (100k rows) ----------------------------------------

void BM_GroupByRowEngine(benchmark::State& state) {
  const legacy::RowFrame frame = rowFrame(makeCorpus(kMicroRows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.groupBy(kGroupKeys, "value", Agg::kMean));
  }
}
BENCHMARK(BM_GroupByRowEngine)->Unit(benchmark::kMillisecond);

void BM_GroupByColumnar(benchmark::State& state) {
  const DataFrame frame = columnarFrame(makeCorpus(kMicroRows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.groupBy(kGroupKeys, "value", Agg::kMean));
  }
}
BENCHMARK(BM_GroupByColumnar)->Unit(benchmark::kMillisecond);

void BM_FilterEqualsRowEngine(benchmark::State& state) {
  const legacy::RowFrame frame = rowFrame(makeCorpus(kMicroRows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.filterEquals("system", "csd3"));
  }
}
BENCHMARK(BM_FilterEqualsRowEngine)->Unit(benchmark::kMillisecond);

void BM_FilterEqualsColumnar(benchmark::State& state) {
  const DataFrame frame = columnarFrame(makeCorpus(kMicroRows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.filterEquals("system", "csd3"));
  }
}
BENCHMARK(BM_FilterEqualsColumnar)->Unit(benchmark::kMillisecond);

void BM_SortRowEngine(benchmark::State& state) {
  const legacy::RowFrame frame = rowFrame(makeCorpus(kMicroRows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.sortBy("value", false));
  }
}
BENCHMARK(BM_SortRowEngine)->Unit(benchmark::kMillisecond);

void BM_SortColumnar(benchmark::State& state) {
  const DataFrame frame = columnarFrame(makeCorpus(kMicroRows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.sortBy("value", false));
  }
}
BENCHMARK(BM_SortColumnar)->Unit(benchmark::kMillisecond);

void BM_DescribeRowEngine(benchmark::State& state) {
  const legacy::RowFrame frame = rowFrame(makeCorpus(kMicroRows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.describe());
  }
}
BENCHMARK(BM_DescribeRowEngine)->Unit(benchmark::kMillisecond);

void BM_DescribeColumnar(benchmark::State& state) {
  const DataFrame frame = columnarFrame(makeCorpus(kMicroRows));
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.describe());
  }
}
BENCHMARK(BM_DescribeColumnar)->Unit(benchmark::kMillisecond);

// ---- checked ablation at 1M rows ----------------------------------------

/// CPU time consumed by the calling thread, in seconds.
double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpuSecondsSince(double start) { return threadCpuSeconds() - start; }

int reproduceAblation() {
  int passed = 0;
  int failed = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS" : "FAIL") << ": " << what << "\n";
    (ok ? passed : failed) += 1;
  };

  std::cout << "building " << kRows << "-row corpus...\n";
  const Corpus corpus = makeCorpus(kRows);
  const DataFrame columnar = columnarFrame(corpus);
  const legacy::RowFrame rows = rowFrame(corpus);

  // (1) group-by: composite-key aggregation, both engines, same bytes.
  const double rowGroupStart = threadCpuSeconds();
  const legacy::RowFrame rowGrouped =
      rows.groupBy(kGroupKeys, "value", Agg::kMean);
  const double rowGroupSeconds = cpuSecondsSince(rowGroupStart);
  const double colGroupStart = threadCpuSeconds();
  const DataFrame colGrouped =
      columnar.groupBy(kGroupKeys, "value", Agg::kMean);
  const double colGroupSeconds = cpuSecondsSince(colGroupStart);
  const double groupSpeedup = rowGroupSeconds / colGroupSeconds;
  check(colGrouped.toCsv() == rowGrouped.toCsv(),
        "group-by output is byte-identical across engines");
  check(groupSpeedup >= 10.0,
        "columnar group-by >= 10x row engine at 1M rows (" +
            str::fixed(groupSpeedup, 1) + "x)");

  // (2) per-group percentiles: one sort per group vs the row idiom's
  // sort-per-percentile over map-of-vectors groups.
  const std::vector<double> ps = {50.0, 99.0};
  const double rowPctStart = threadCpuSeconds();
  const std::vector<double> rowPct = rowEnginePercentiles(rows, ps);
  const double rowPctSeconds = cpuSecondsSince(rowPctStart);
  const double colPctStart = threadCpuSeconds();
  const DataFrame colPct = columnar.groupPercentiles(kGroupKeys, "value", ps);
  const double colPctSeconds = cpuSecondsSince(colPctStart);
  const double pctSpeedup = rowPctSeconds / colPctSeconds;
  bool pctMatch = colPct.rowCount() * ps.size() == rowPct.size();
  if (pctMatch) {
    const auto& p50 = colPct.numeric("p50");
    const auto& p99 = colPct.numeric("p99");
    for (std::size_t g = 0; g < colPct.rowCount(); ++g) {
      pctMatch = pctMatch && p50[g] == rowPct[2 * g] &&
                 p99[g] == rowPct[2 * g + 1];
    }
  }
  check(pctMatch, "per-group percentiles are bit-identical across engines");
  check(pctSpeedup >= 10.0,
        "columnar percentiles >= 10x row engine at 1M rows (" +
            str::fixed(pctSpeedup, 1) + "x)");

  // (3) describe() identity (all-numeric summary path).
  check(columnar.describe().toCsv() == rows.describe().toCsv(),
        "describe() output is byte-identical across engines");

  // (4) pivot identity on the full corpus.
  const PivotTable colPivot = columnar.pivot("system", "test", "value");
  const PivotTable rowPivot = rows.pivot("system", "test", "value");
  bool pivotSame = colPivot.rowLabels == rowPivot.rowLabels &&
                   colPivot.colLabels == rowPivot.colLabels;
  for (std::size_t r = 0; pivotSame && r < colPivot.cells.size(); ++r) {
    for (std::size_t c = 0; c < colPivot.cells[r].size(); ++c) {
      pivotSame = pivotSame && colPivot.cells[r][c] == rowPivot.cells[r][c];
    }
  }
  check(pivotSame, "pivot labels and cells are identical across engines");

  // (5) zone maps: probing one system on the clustered corpus must skip
  // the chunks the other five systems occupy.
  columnar::Arena arena;
  columnar::KernelStats zoneStats;
  const auto hits = columnar::selectEquals(
      columnar.table().find("system")->strs(), "cosma8", arena, &zoneStats);
  check(!hits.empty() && zoneStats.chunks >= 15 &&
            zoneStats.skippedChunks >= (zoneStats.chunks * 3) / 5,
        "zone maps skip >= 3/5 of chunks on a clustered equality probe (" +
            std::to_string(zoneStats.skippedChunks) + "/" +
            std::to_string(zoneStats.chunks) + ")");

  std::ofstream out("BENCH_dataframe.json");
  out << "{\"schema\":\"rebench.bench_dataframe/1\","
      << "\"clock\":\"thread_cpu\","
      << "\"rows\":" << kRows << ","
      << "\"groups\":" << colGrouped.rowCount() << ","
      << "\"groupby_row_engine_s\":" << str::fixed(rowGroupSeconds, 4) << ","
      << "\"groupby_columnar_s\":" << str::fixed(colGroupSeconds, 4) << ","
      << "\"groupby_speedup\":" << str::fixed(groupSpeedup, 1) << ","
      << "\"percentile_row_engine_s\":" << str::fixed(rowPctSeconds, 4) << ","
      << "\"percentile_columnar_s\":" << str::fixed(colPctSeconds, 4) << ","
      << "\"percentile_speedup\":" << str::fixed(pctSpeedup, 1) << ","
      << "\"zone_chunks\":" << zoneStats.chunks << ","
      << "\"zone_chunks_skipped\":" << zoneStats.skippedChunks << ","
      << "\"checks_passed\":" << passed << ","
      << "\"checks_failed\":" << failed << "}\n";
  std::cout << "BENCH_dataframe.json written (group-by "
            << str::fixed(groupSpeedup, 1) << "x, percentiles "
            << str::fixed(pctSpeedup, 1) << "x thread-CPU).\n";
  if (failed == 0) std::cout << "DATAFRAME ABLATION OK\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return reproduceAblation();
}
