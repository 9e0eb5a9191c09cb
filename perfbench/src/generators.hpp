// Seeded input generators.  The seed picks every input; the program only
// ever sees the generated files and invocations.  Each generator keeps
// the amount of work the same for every seed (balanced multisets, fixed
// sizes) and varies which inputs carry it, so that runs on different
// seeds measure the same load.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/framework/regression_test.hpp"
#include "core/store/manifest.hpp"

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same sequence on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// The six simulated systems and the suite's four benchmark tags.
const std::vector<std::string>& simulatedSystems();
const std::vector<std::string>& suiteTags();

/// serve workloads: distinct suite-mode submissions, five per
/// (system, tag) cell, 120 in all.  Each cell gets the repeats multiset
/// {1, 1, 2, 2, 3} in seeded order and five distinct seeded accounts.
std::vector<rebench::store::CampaignInvocation> serveQueue(std::uint64_t seed);

/// Maps a queued invocation to the tests it runs, over builtinSuite()
/// (the CLI's resolver lives in its main.cpp, out of reach).
std::vector<rebench::RegressionTest> resolveSuite(
    const rebench::store::CampaignInvocation& inv);

/// campaign_jobs: the whole suite on all six systems, twice each, in a
/// seeded target order under a seeded account.
struct CampaignInput {
  rebench::store::CampaignInvocation invocation;
  std::vector<std::string> targets;
  std::vector<rebench::RegressionTest> tests;
};
CampaignInput campaignInput(std::uint64_t seed);

/// perflog_report: a perflog of `points` observations for each of 216
/// series (6 systems x 12 tests x 3 FOMs), values with bounded +-1.5%
/// noise, and one seeded series that drops by 30% from a seeded point on.
struct PerflogCorpus {
  std::string text;  // perflog lines
  std::size_t rows = 0;
  std::string stepSystem;
  std::string stepTest;
  std::string stepFom;
  std::size_t stepIndex = 0;  // first dropped point of that series
};
PerflogCorpus perflogCorpus(std::uint64_t seed, std::size_t points);

/// The analyst queries perflog_report runs, in a seeded order.  Every
/// block of eight holds two of each kind.
enum class QueryKind { kStats, kPivot, kDetect, kCompare };
const char* queryName(QueryKind kind);
struct Query {
  QueryKind kind = QueryKind::kStats;
  std::string fom;  // FOM the stats/pivot query filters on
};
std::vector<Query> queryMix(std::uint64_t seed, std::size_t count);

}  // namespace perfbench
