// perfbench — end-to-end benchmark of rebench itself.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Prints a human-readable report, then as its last line one JSON object
// with the keys correct, attempted, failed and metrics.  --trace 0 gives
// the end-to-end metrics, --trace 1 the per-layer ones.  Exit 0 when the
// run completed (even if outputs were wrong: `correct` says so), 2 on a
// usage error, 1 when the run could not complete.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR\nworkloads:";
  for (const std::string& name : perfbench::workloadNames()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--workdir") {
        args.workDir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  const auto& names = perfbench::workloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (args.workDir.empty()) return usage("--workdir DIR required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  // One malloc arena.  With one per thread, peak RSS depends on which
  // pool thread first allocated what, and moves by a third from seed to
  // seed; CPU time is the same either way.
  ::mallopt(M_ARENA_MAX, 1);
  // One process that leaves half the cores (of at most four) to the rest
  // of the machine: campaign_jobs runs on the other half, and the
  // kernels' global pool gets one thread.  The simulated kernels last
  // microseconds, so a wider pool only added hand-off cost and exposure
  // to neighbours' load: on a shared 4-vCPU machine, every core busy
  // moved campaign_jobs' p90 by a third from run to run, and a two-thread
  // pool cost it a fifth of its throughput.  Set before any pool exists.
  const long cpus = std::clamp(::sysconf(_SC_NPROCESSORS_ONLN), 1L, 4L);
  args.jobs = static_cast<int>(std::max(1L, cpus / 2));
  ::setenv("REBENCH_THREADS", "1", 1);

  try {
    std::filesystem::remove_all(args.workDir);
    std::filesystem::create_directories(args.workDir);
    const perfbench::Result result = perfbench::runWorkload(args);
    std::filesystem::remove_all(args.workDir);
    perfbench::printReport(std::cout, args.workload, result);
    std::cout << perfbench::resultJson(result) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
}
