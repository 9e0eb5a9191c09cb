// Experiment E14 (extension) — "Twelve Ways to Fool the Masses",
// mechanically detected.
//
// The paper's Principles exist to make Bailey's tricks impossible; the
// hygiene auditor makes the surviving ones *detectable* in collected
// data.  This bench stages a clean study and four classic manipulations
// of it, and shows the audit verdict for each.
#include <benchmark/benchmark.h>

#include <iostream>

#include "babelstream/testcase.hpp"
#include "core/framework/pipeline.hpp"
#include "core/postproc/hygiene.hpp"
#include "core/util/table.hpp"

namespace {

using namespace rebench;

void BM_AuditLargePerflog(benchmark::State& state) {
  std::vector<PerfLogEntry> entries;
  for (int i = 0; i < 2000; ++i) {
    PerfLogEntry entry;
    entry.system = std::string("sys").append(std::to_string(i % 5));
    entry.partition = "p";
    entry.testName = std::string("t").append(std::to_string(i % 7));
    entry.fomName = "Triad";
    entry.value = 100.0 + i;
    entry.unit = Unit::kMBperSec;
    entry.result = "pass";
    entry.binaryId = "bin";
    entry.spec = "babelstream@4.0";
    entry.reference = 100.0;
    entries.push_back(entry);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditPerflog(entries));
  }
}
BENCHMARK(BM_AuditLargePerflog);

std::vector<PerfLogEntry> cleanStudy() {
  // A properly-run study: 5 repeats of the same benchmark on two systems,
  // through the real pipeline (so every entry carries full provenance).
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  PipelineOptions options;
  options.numRepeats = 5;
  Pipeline pipeline(systems, repo, options);
  PerfLog log;
  babelstream::BabelstreamTestOptions test;
  test.model = "omp";
  test.ntimes = 20;
  const std::array<RegressionTest, 1> tests{
      babelstream::makeBabelstreamTest(test)};
  const std::array<std::string, 2> targets{"archer2", "csd3"};
  pipeline.runAll(tests, targets, &log);
  return PerfLog::parseLines(log.lines());
}

void reproduceAblation() {
  const std::vector<PerfLogEntry> clean = cleanStudy();

  struct Scenario {
    const char* name;
    std::vector<PerfLogEntry> entries;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"clean study (5 repeats, full provenance)", clean});

  // Trick 1: quote a single (best) run per system.
  {
    std::vector<PerfLogEntry> best;
    for (const PerfLogEntry& entry : clean) {
      bool keep = true;
      for (const PerfLogEntry& other : best) {
        if (other.system == entry.system &&
            other.fomName == entry.fomName) {
          keep = false;
        }
      }
      if (keep) best.push_back(entry);
    }
    scenarios.push_back({"cherry-pick one run per system", std::move(best)});
  }

  // Trick 2: quietly swap in a retuned binary for some of the repeats.
  {
    std::vector<PerfLogEntry> mixed = clean;
    for (std::size_t i = 1; i < mixed.size(); i += 2) {
      mixed[i].binaryId = "secretly-optimised-build";
      mixed[i].value *= 1.15;
    }
    scenarios.push_back({"swap in a retuned binary mid-series",
                         std::move(mixed)});
  }

  // Trick 3: run a smaller problem on the slower system.
  {
    std::vector<PerfLogEntry> unfair = clean;
    for (PerfLogEntry& entry : unfair) {
      if (entry.system == "csd3") {
        entry.spec = "babelstream@4.0 model=omp array_size=small";
      }
    }
    scenarios.push_back({"different problem on one system",
                         std::move(unfair)});
  }

  // Trick 4: strip the units (Bailey's favourite ambiguity).
  {
    std::vector<PerfLogEntry> unitless = clean;
    for (PerfLogEntry& entry : unitless) entry.unit = Unit::kNone;
    scenarios.push_back({"report bare numbers without units",
                         std::move(unitless)});
  }

  AsciiTable table("Ablation: the hygiene auditor vs classic manipulations");
  table.setHeader({"scenario", "findings", "rules triggered"});
  for (const Scenario& scenario : scenarios) {
    const auto findings = auditPerflog(scenario.entries);
    std::string rules;
    std::string last;
    for (const HygieneFinding& finding : findings) {
      const std::string name(hygieneRuleName(finding.rule));
      if (name != last) {
        if (!rules.empty()) rules += ", ";
        rules += name;
        last = name;
      }
    }
    table.addRow({scenario.name, std::to_string(findings.size()),
                  findings.empty() ? "(clean)" : rules});
  }
  std::cout << "\n" << table.render();
  std::cout << "\nEvery manipulated variant is flagged; the honestly-run "
               "study is clean.  This is Principle 6 closing the loop on "
               "Bailey [3] and Hoefler & Belli [17].\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  reproduceAblation();
  return 0;
}
