// Experiments E6/E7 — Tables 4 and 5 of the paper.
//
// Runs the HPGMG-FV benchmark through the framework pipeline on the four
// §3.3 systems with the appendix geometry (8 tasks, 2 per node, 8 cpus
// per task, args "7 8") and prints the l0/l1/l2 compute rates, plus the
// Table 5 processor inventory.
#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>

#include "core/framework/pipeline.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/postproc/plot.hpp"
#include "core/sched/launcher.hpp"
#include "core/util/strings.hpp"
#include "core/util/table.hpp"
#include "hpgmg/testcase.hpp"

namespace {

using namespace rebench;

// ---- microbenchmarks: multigrid kernels natively --------------------------

void BM_GsrbSweep(benchmark::State& state) {
  hpgmg::Level level(static_cast<int>(state.range(0)));
  hpgmg::WorkCounters counters;
  hpgmg::fillManufacturedRhs(level);
  for (auto _ : state) {
    hpgmg::smoothGSRB(level, counters);
    benchmark::DoNotOptimize(level.u.data());
  }
  state.SetItemsProcessed(state.iterations() * level.cells());
}
BENCHMARK(BM_GsrbSweep)->Arg(16)->Arg(32);

void BM_FmgSolve(benchmark::State& state) {
  for (auto _ : state) {
    hpgmg::MgSolver solver(static_cast<int>(state.range(0)));
    hpgmg::fillManufacturedRhs(solver.fineLevel());
    benchmark::DoNotOptimize(solver.fmgSolve());
  }
  const std::size_t dof = static_cast<std::size_t>(state.range(0)) *
                          state.range(0) * state.range(0);
  state.SetItemsProcessed(state.iterations() * dof);
}
BENCHMARK(BM_FmgSolve)->Arg(16)->Arg(32);

// ---- the Table 4 reproduction ---------------------------------------------

struct SystemRow {
  const char* target;
  const char* label;
};
constexpr SystemRow kSystems[] = {
    {"archer2", "ARCHER2 (Rome)"},
    {"cosma8", "COSMA8 (Rome)"},
    {"csd3", "CSD3 (Cascade Lake)"},
    {"isambard-macs:cascadelake", "Isambard (Cascade Lake)"},
};

void printTable5() {
  const SystemRegistry systems = builtinSystems();
  AsciiTable table("Table 5: Details of the processors used in this study");
  table.setHeader({"System", "Processor", "Core count", "Scheduler",
                   "Launcher"});
  for (const char* target :
       {"isambard:xci", "isambard-macs:cascadelake", "isambard-macs:volta",
        "cosma8", "archer2", "csd3", "noctua2"}) {
    const auto [sys, part] = systems.resolve(target);
    const ProcessorInfo& p = part->processor;
    const std::string cores =
        p.isGpu ? "-"
                : std::to_string(p.coresPerSocket) + " cores/socket, " +
                      std::to_string(p.sockets) + " sockets";
    table.addRow({sys->name, p.model + " @ " + str::fixed(p.baseClockGhz, 2) +
                                 " GHz",
                  cores, std::string(schedulerName(part->scheduler)),
                  std::string(launcherName(part->launcher))});
  }
  std::cout << "\n" << table.render();
}

void reproduceTable4() {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  Pipeline pipeline(systems, repo);
  PerfLog perflog;

  const RegressionTest test = hpgmg::makeHpgmgTest({});

  AsciiTable table(
      "Table 4: Figures of Merit of HPGMG-FV benchmark, compute rate in "
      "10^6 DOF/s (8 tasks, 2 tasks/node, 8 cpus/task, args '7 8')");
  table.setHeader({"System", "l0", "l1", "l2"});
  for (const SystemRow& row : kSystems) {
    const TestRunResult result =
        pipeline.runOne(test, row.target, &perflog);
    if (!result.passed) {
      table.addRow({row.label, "FAILED: " + result.failure.stage, "", ""});
      continue;
    }
    table.addRow({row.label, str::fixed(result.foms.at("l0"), 2),
                  str::fixed(result.foms.at("l1"), 2),
                  str::fixed(result.foms.at("l2"), 2)});
  }
  std::cout << "\n" << table.render();

  AsciiTable paper("Paper's Table 4 values, for comparison:");
  paper.setHeader({"System", "l0", "l1", "l2"});
  paper.addRow({"ARCHER2 (Rome)", "95.36", "83.43", "62.18"});
  paper.addRow({"COSMA8 (Rome)", "81.67", "72.96", "75.09"});
  paper.addRow({"CSD3 (Cascade Lake)", "126.10", "94.39", "49.40"});
  paper.addRow({"Isambard (Cascade Lake)", "30.59", "25.55", "17.55"});
  std::cout << "\n" << paper.render();

  // Post-processing path (Principle 6): perflog -> frame -> bar chart.
  const DataFrame frame =
      perflogToDataFrame(PerfLog::parseLines(perflog.lines()));
  const DataFrame l0 = frame.filterEquals("fom", "l0");
  std::vector<std::string> labels;
  std::vector<double> values;
  for (std::size_t i = 0; i < l0.rowCount(); ++i) {
    labels.push_back(l0.strings("system")[i]);
    values.push_back(l0.numeric("value")[i]);
  }
  std::cout << "\n"
            << renderBarChart(labels, values,
                              {.title = "HPGMG-FV l0 rate per system",
                               .width = 40,
                               .valueSuffix = " MDOF/s",
                               .maxValue = {}});
  std::ofstream svg("table4_hpgmg_l0.svg");
  svg << renderBarChartSvg(labels, values,
                           {.title = "HPGMG-FV l0 (MDOF/s)",
                            .width = 50,
                            .valueSuffix = " MDOF/s",
                            .maxValue = {}});
  std::cout << "(SVG written to table4_hpgmg_l0.svg)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printTable5();
  reproduceTable4();
  return 0;
}
