#include "generators.hpp"

#include <cstdio>

#include "core/framework/perflog.hpp"
#include "suite/builtin_suite.hpp"

namespace perfbench {

using rebench::store::CampaignInvocation;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const std::vector<std::string>& simulatedSystems() {
  static const std::vector<std::string> systems{
      "archer2", "cosma8", "csd3", "isambard", "isambard-macs", "noctua2"};
  return systems;
}

const std::vector<std::string>& suiteTags() {
  static const std::vector<std::string> tags{"babelstream", "hpcg", "hpgmg",
                                             "osu"};
  return tags;
}

namespace {

/// Distinct account names drawn from a pool of 900 ("ec100".."ec999").
std::vector<std::string> distinctAccounts(Rng& rng, std::size_t count) {
  std::vector<std::string> accounts;
  while (accounts.size() < count) {
    const std::string name = "ec" + std::to_string(100 + rng.below(900));
    bool seen = false;
    for (const std::string& other : accounts) seen = seen || other == name;
    if (!seen) accounts.push_back(name);
  }
  return accounts;
}

}  // namespace

std::vector<CampaignInvocation> serveQueue(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<CampaignInvocation> queue;
  for (const std::string& system : simulatedSystems()) {
    for (const std::string& tag : suiteTags()) {
      std::vector<int> repeats{1, 1, 2, 2, 3};
      rng.shuffle(repeats);
      const std::vector<std::string> accounts = distinctAccounts(rng, 5);
      for (std::size_t i = 0; i < repeats.size(); ++i) {
        CampaignInvocation inv;
        inv.mode = "suite";
        inv.system = system;
        inv.tag = tag;
        inv.account = accounts[i];
        inv.repeats = repeats[i];
        // What `rebench submit` records: submissions always run against
        // the daemon's store, with build reuse on.
        inv.withStore = true;
        inv.cache = true;
        queue.push_back(std::move(inv));
      }
    }
  }
  return queue;
}

std::vector<rebench::RegressionTest> resolveSuite(
    const CampaignInvocation& inv) {
  return rebench::builtinSuite().select(inv.tag, inv.namePattern,
                                        inv.excludePattern);
}

CampaignInput campaignInput(std::uint64_t seed) {
  Rng rng(seed);
  CampaignInput input;
  input.targets = simulatedSystems();
  rng.shuffle(input.targets);
  // Suite order stays fixed: shuffling the tests changes which heavy runs
  // overlap on the workers, and with it peak memory by a third.
  input.tests = rebench::builtinSuite().select();
  CampaignInvocation& inv = input.invocation;
  inv.mode = "suite";
  for (const std::string& target : input.targets) {
    inv.system += (inv.system.empty() ? "" : ",") + target;
  }
  inv.account = distinctAccounts(rng, 1).front();
  inv.repeats = 2;
  inv.withStore = true;
  inv.cache = true;
  return input;
}

PerflogCorpus perflogCorpus(std::uint64_t seed, std::size_t points) {
  Rng rng(seed);
  const std::vector<std::string>& systems = simulatedSystems();
  static const char* foms[] = {"Copy", "Triad", "Dot"};
  constexpr std::size_t kTests = 12;

  PerflogCorpus corpus;
  corpus.stepSystem = systems[rng.below(systems.size())];
  char name[32];
  std::snprintf(name, sizeof(name), "SuiteTest_%02d",
                static_cast<int>(rng.below(kTests)));
  corpus.stepTest = name;
  corpus.stepFom = foms[rng.below(3)];
  // Leave a full detector window before and after the step.
  corpus.stepIndex = points / 4 + rng.below(points / 2);

  // Per-series baselines, fixed by the seed.
  std::vector<double> base(systems.size() * kTests * 3);
  for (double& value : base) value = 1000.0 + 9000.0 * rng.unit();

  std::size_t stamp = 0;
  for (std::size_t point = 0; point < points; ++point) {
    std::size_t series = 0;
    for (const std::string& system : systems) {
      for (std::size_t t = 0; t < kTests; ++t) {
        std::snprintf(name, sizeof(name), "SuiteTest_%02d",
                      static_cast<int>(t));
        for (const char* fom : foms) {
          rebench::PerfLogEntry entry;
          entry.timestamp = "T" + std::to_string(stamp++);
          entry.system = system;
          entry.partition = "compute";
          entry.environ = "gcc@11.2.0";
          entry.testName = name;
          entry.spec = "bench@1.0%gcc@11.2.0";
          entry.specHash = "h" + std::to_string(series);
          entry.binaryId = "b" + std::to_string(series);
          entry.jobId = std::to_string(stamp);
          entry.fomName = fom;
          double value = base[series] * (1.0 + 0.03 * (rng.unit() - 0.5));
          if (system == corpus.stepSystem && name == corpus.stepTest &&
              corpus.stepFom == fom && point >= corpus.stepIndex) {
            value *= 0.7;
          }
          entry.value = value;
          entry.unit = rebench::Unit::kMBperSec;
          entry.result = "pass";
          corpus.text += entry.serialize();
          corpus.text += '\n';
          ++corpus.rows;
          ++series;
        }
      }
    }
  }
  return corpus;
}

const char* queryName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kStats: return "stats";
    case QueryKind::kPivot: return "pivot";
    case QueryKind::kDetect: return "detect";
    case QueryKind::kCompare: return "compare";
  }
  return "?";
}

std::vector<Query> queryMix(std::uint64_t seed, std::size_t count) {
  Rng rng(seed ^ 0x51ed270b27d3f1a9ull);
  static const char* foms[] = {"Copy", "Triad", "Dot"};
  std::vector<Query> mix;
  while (mix.size() < count) {
    std::vector<QueryKind> block{QueryKind::kStats,   QueryKind::kStats,
                                 QueryKind::kPivot,   QueryKind::kPivot,
                                 QueryKind::kDetect,  QueryKind::kDetect,
                                 QueryKind::kCompare, QueryKind::kCompare};
    rng.shuffle(block);
    for (QueryKind kind : block) {
      if (mix.size() == count) break;
      mix.push_back({kind, foms[rng.below(3)]});
    }
  }
  return mix;
}

}  // namespace perfbench
