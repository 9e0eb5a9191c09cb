// Quickstart: define a benchmark, run it through the reproducible
// pipeline on two systems, and read the results back from the perflog.
//
// This is the "hello world" of the framework: it shows the separation the
// paper's methodology prescribes — the *benchmark description* below never
// mentions schedulers, launchers, compilers or module files; all of that
// lives in the system configuration and is applied by the pipeline.
//
//   $ ./quickstart
#include <iostream>

#include "core/framework/pipeline.hpp"
#include "core/obs/trace.hpp"
#include "core/postproc/perflog_reader.hpp"
#include "core/util/table.hpp"

using namespace rebench;

int main() {
  // 1. A benchmark description (the ReFrame-class equivalent).  The body
  //    here is a stand-in "application" that reports a fake bandwidth; see
  //    the other examples for real benchmark bodies.
  RegressionTest test;
  test.name = "QuickstartStream";
  test.spackSpec = "stream%gcc";          // what to build (Principle 2-4)
  test.numTasks = 1;
  test.numTasksPerNode = 1;
  test.sanityPattern = "Solution Validates";          // is the output valid?
  test.perfPatterns = {                               // how to read the FOM
      {"Triad", R"(Triad:\s+([0-9.]+))", Unit::kMBperSec},
  };
  test.run = [](const RunContext& ctx) {
    // The pipeline hands the "binary" its allocation and concretized spec.
    std::string out = "STREAM version $Revision: 5.10 $\n";
    out += "Triad: " + std::to_string(100000.0 + 1000.0 *
                                      ctx.allocation.cpusPerTask) +
           " MB/s\n";
    out += "Solution Validates\n";
    return RunOutput{out, /*elapsedSeconds=*/12.0, false, ""};
  };

  // 2. Run it on two systems.  Everything system-specific — SLURM account
  //    flags, srun vs mpirun, gcc 11.2.0 vs 9.2.0 — comes from the
  //    registry, not from the test.
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();
  // Attach the observability hooks: every stage of both runs below lands
  // in quickstart_trace.jsonl (deterministic — see `rebench trace-report`).
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  PipelineOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  Pipeline pipeline(systems, repo, options);
  PerfLog perflog;

  for (const char* target : {"archer2", "isambard-macs:cascadelake"}) {
    const TestRunResult result = pipeline.runOne(test, target, &perflog);
    std::cout << "== " << target << " ==\n";
    std::cout << "concretized: " << result.concreteSpec->shortForm() << "\n";
    std::cout << "binary id:   " << result.build.binaryId.substr(0, 16)
              << "...\n";
    std::cout << "launched as: " << result.launchCommand << "\n";
    std::cout << "job state:   " << jobStateName(result.jobState) << "\n";
    std::cout << "Triad FOM:   " << result.foms.at("Triad") << " MB/s\n\n";
  }

  // 3. Post-process: the perflog is the durable record (Principle 6).
  const DataFrame frame =
      perflogToDataFrame(PerfLog::parseLines(perflog.lines()));
  AsciiTable table("perflog contents:");
  table.setHeader({"system", "environ", "fom", "value", "result"});
  for (std::size_t i = 0; i < frame.rowCount(); ++i) {
    table.addRow({frame.strings("system")[i], frame.strings("environ")[i],
                  frame.strings("fom")[i], frame.cellText("value", i),
                  frame.strings("result")[i]});
  }
  std::cout << table.render();

  // 4. The trace is the other durable record: spans for every pipeline
  //    stage plus the run's metrics, ready for `rebench trace-report`.
  tracer.writeFile("quickstart_trace.jsonl", &metrics);
  std::cout << "trace written to quickstart_trace.jsonl\n";
  return 0;
}
