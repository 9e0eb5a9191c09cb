#include "core/postproc/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/postproc/columnar/kernels.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

namespace {

/// Two-sided 97.5% t-distribution quantiles for small samples; converges
/// to the normal 1.96 for large n.
double tQuantile975(std::size_t degreesOfFreedom) {
  static constexpr double kTable[] = {
      0.0,   12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
      2.306, 2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
      2.120, 2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
      2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  if (degreesOfFreedom == 0) return 0.0;
  if (degreesOfFreedom < std::size(kTable)) {
    return kTable[degreesOfFreedom];
  }
  return 1.96 + 2.5 / static_cast<double>(degreesOfFreedom);
}

}  // namespace

double percentile(std::span<const double> samples, double p) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return columnar::sortedPercentile(sorted, p);
}

SummaryStats summarize(std::span<const double> samples) {
  if (samples.empty()) throw Error("cannot summarize an empty sample");
  SummaryStats stats;
  stats.count = samples.size();
  double sum = 0.0;
  stats.min = samples[0];
  stats.max = samples[0];
  for (double v : samples) {
    sum += v;
    stats.min = std::min(stats.min, v);
    stats.max = std::max(stats.max, v);
  }
  stats.mean = sum / static_cast<double>(stats.count);
  if (stats.count > 1) {
    double ss = 0.0;
    for (double v : samples) ss += (v - stats.mean) * (v - stats.mean);
    stats.stddev = std::sqrt(ss / static_cast<double>(stats.count - 1));
    stats.ci95 = tQuantile975(stats.count - 1) * stats.stddev /
                 std::sqrt(static_cast<double>(stats.count));
  }
  stats.median = percentile(samples, 50.0);
  stats.q1 = percentile(samples, 25.0);
  stats.q3 = percentile(samples, 75.0);
  stats.cv = stats.mean != 0.0 ? stats.stddev / std::abs(stats.mean) : 0.0;
  return stats;
}

std::string renderStats(const SummaryStats& stats, int digits) {
  std::string out = "median " + str::fixed(stats.median, digits) + " [q1 " +
                    str::fixed(stats.q1, digits) + ", q3 " +
                    str::fixed(stats.q3, digits) + "], mean " +
                    str::fixed(stats.mean, digits);
  if (stats.count > 1) {
    out += " +/- " + str::fixed(stats.ci95, digits) + " (95% CI, n=" +
           std::to_string(stats.count) + ", CV " +
           str::fixed(stats.cv * 100.0, 1) + "%)";
  } else {
    out += " (n=1: NOT statistically reportable)";
  }
  return out;
}

bool isReportable(const SummaryStats& stats, std::size_t minRuns,
                  double maxCv) {
  return stats.count >= minRuns && stats.cv <= maxCv;
}

}  // namespace rebench
