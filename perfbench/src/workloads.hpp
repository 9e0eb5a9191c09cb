// The four perfbench workloads.  Each prepares its starting state in a
// set-up phase, then measures untraced passes (--trace 0: end-to-end
// metrics) or pairs of untraced and traced passes (--trace 1: per-layer
// metrics) for the requested number of seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;  // scratch space for queues, stores and perflogs
  int jobs = 1;         // campaign_jobs workers
};

const std::vector<std::string>& workloadNames();

/// The metrics a run reports, in BENCHMARK.json order: end-to-end with
/// --trace 0, per-layer with --trace 1.
struct MetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<MetricSpec>& endToEndMetrics();
const std::vector<MetricSpec>& perLayerMetrics();

/// Runs one workload.  Throws std::invalid_argument for an unknown name.
Result runWorkload(const RunArgs& args);

}  // namespace perfbench
