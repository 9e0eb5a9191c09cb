// Supercomputing-provision survey (the §3.3 workload): run the same
// benchmark, in the same configuration, on every configured system with a
// single loop — the "single workflow" §3.3 demonstrates — and assimilate
// the per-system perflogs afterwards.
//
//   $ ./multi_system_survey
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "core/framework/pipeline.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/postproc/plot.hpp"
#include "core/util/strings.hpp"
#include "core/util/table.hpp"
#include "hpgmg/testcase.hpp"

using namespace rebench;

int main() {
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  Pipeline pipeline(systems, repo);

  // The appendix invocation, verbatim semantics:
  //   reframe -c .../hpgmg -r -J'--qos=standard' --system archer2
  //     -S spack_spec=hpgmg%gcc --setvar=num_cpus_per_task=8
  //     --setvar=num_tasks_per_node=2 --setvar=num_tasks=8
  const RegressionTest test = hpgmg::makeHpgmgTest({});

  const auto tmp = std::filesystem::temp_directory_path();
  std::vector<std::string> perflogPaths;

  for (const char* target :
       {"archer2", "cosma8", "csd3", "isambard-macs:cascadelake"}) {
    const std::string path =
        (tmp / (std::string("survey_") +
                str::replaceAll(target, ":", "_") + ".log"))
            .string();
    std::remove(path.c_str());
    PerfLog log(path);  // each system writes its own perflog
    const TestRunResult result = pipeline.runOne(test, target, &log);
    std::cout << str::padRight(target, 28)
              << (result.passed ? "ok    " : "FAILED")
              << "  job=" << result.jobId
              << "  launch: " << result.launchCommand << "\n";
    perflogPaths.push_back(path);
  }

  // Cross-system assimilation: concatenate the isolated perflogs.
  const DataFrame frame = assimilatePerflogs(perflogPaths);
  AsciiTable table("\nHPGMG-FV figures of merit (10^6 DOF/s):");
  table.setHeader({"System", "l0", "l1", "l2"});
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < frame.rowCount(); ++i) {
    const std::string& system = frame.strings("system")[i];
    if (std::find(seen.begin(), seen.end(), system) != seen.end()) continue;
    seen.push_back(system);
    const DataFrame rows = frame.filterEquals("system", system);
    auto fom = [&rows](const char* name) {
      const DataFrame cell = rows.filterEquals("fom", name);
      return cell.empty() ? std::string("-")
                          : str::fixed(cell.numeric("value")[0], 2);
    };
    table.addRow({system, fom("l0"), fom("l1"), fom("l2")});
  }
  std::cout << table.render();

  // Scaling view across the three problem scales.
  std::vector<Series> series;
  for (const std::string& system : seen) {
    Series s;
    s.name = system;
    const DataFrame rows = frame.filterEquals("system", system);
    for (int level = 0; level < 3; ++level) {
      const DataFrame cell = rows.filterEquals(
          "fom", std::string("l").append(std::to_string(level)));
      if (cell.empty()) continue;
      s.x.push_back(level);
      s.y.push_back(cell.numeric("value")[0]);
    }
    series.push_back(std::move(s));
  }
  std::cout << "\n"
            << renderScalingPlot(series,
                                 "rate (MDOF/s) vs problem scale "
                                 "(0=full, 2=1/64)",
                                 50, 12);

  std::cout << "\nSame architecture, different platform: the two Cascade "
               "Lake systems differ by ~4x — §3.3's motivation for "
               "cross-system regression testing.\n";
  for (const std::string& path : perflogPaths) std::remove(path.c_str());
  return 0;
}
