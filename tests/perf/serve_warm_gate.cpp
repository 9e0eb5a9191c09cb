// Performance gate: a warm serve pass over an unchanged queue runs no
// pipeline.  A fixed queue, one suite submission per simulated system and
// suite tag, is drained cold into an empty store and then drained again.
// Some of those cells are N/A on their system (Figure 2's `*`), so their
// submissions fail permanently; the RunCache memoizes them like clean
// runs.  The warm pass must execute nothing, answer every submission
// `cached` (or `failed:permanent` again when it failed before a run key
// existed), and cost at most 20% of the cold pass's CPU time.  Both
// passes run in one process and the bar is a ratio of their CPU times,
// so it holds on a loaded host.
//
//   serve_warm_gate        prints SERVE WARM GATE OK, or exits 1
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/fault/journal.hpp"
#include "core/service/queue.hpp"
#include "core/service/service.hpp"
#include "suite/builtin_suite.hpp"

namespace {

namespace fs = std::filesystem;
using namespace rebench;

constexpr double kMaxWarmShare = 0.20;

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<RegressionTest> resolveSuite(
    const store::CampaignInvocation& inv) {
  return builtinSuite().select(inv.tag, inv.namePattern, inv.excludePattern);
}

}  // namespace

int main() {
  const std::string root =
      (fs::temp_directory_path() /
       ("serve_warm_gate_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(root);
  const SystemRegistry systems = builtinSystems();
  const PackageRepository repo = builtinRepository();

  service::ServeOptions options;
  options.queueDir = root + "/queue";
  options.storeDir = root + "/store";
  std::vector<service::Submission> queue;
  for (const char* system :
       {"archer2", "cosma8", "csd3", "isambard", "isambard-macs", "noctua2"}) {
    for (const char* tag : {"babelstream", "hpcg", "hpgmg", "osu"}) {
      store::CampaignInvocation inv;
      inv.mode = "suite";
      inv.system = system;
      inv.tag = tag;
      inv.repeats = 1;
      inv.withStore = true;
      inv.cache = true;
      queue.push_back(service::enqueueSubmission(options.queueDir, inv));
    }
  }

  auto drain = [&](service::ServeReport* report) {
    const double start = cpuSeconds();
    *report = service::Service(systems, repo, options, resolveSuite).run();
    return cpuSeconds() - start;
  };
  service::ServeReport cold, warm;
  const double coldCpu = drain(&cold);
  const double warmCpu = drain(&warm);

  // Every warm verdict is a RunCache answer, or a failure that happened
  // before a run key existed and so has nothing to memoize.
  int keyless = 0;
  int unexpected = 0;
  for (const service::Submission& sub : queue) {
    const std::optional<std::string> bytes =
        readWholeFile(service::verdictPath(options.queueDir, sub.id));
    service::Verdict verdict;  // empty when no verdict was filed
    if (bytes) verdict = service::Verdict::parse(*bytes);
    if (verdict.verdict == "failed:permanent" && verdict.key.empty()) {
      ++keyless;
    } else if (verdict.verdict != "cached") {
      ++unexpected;
      std::printf("unexpected warm verdict for %s: '%s'\n", sub.id.c_str(),
                  verdict.verdict.c_str());
    }
  }
  fs::remove_all(root);

  const double share = warmCpu / coldCpu;
  std::printf("submissions: %zu (cold: %d executed, %d failed)\n",
              queue.size(), cold.executed, cold.failed);
  std::printf("warm: %d executed, %d cached, %d key-less failures\n",
              warm.executed, warm.cached, keyless);
  std::printf("cpu: cold %.1f ms, warm %.1f ms, warm/cold %.3f\n",
              coldCpu * 1e3, warmCpu * 1e3, share);
  if (cold.failed == 0) {
    std::printf("FAIL: the queue has no failing cell to memoize\n");
    return 1;
  }
  if (warm.executed != 0 || unexpected != 0) {
    std::printf("FAIL: the warm pass re-executed work\n");
    return 1;
  }
  if (share > kMaxWarmShare) {
    std::printf("FAIL: warm pass costs %.1f%% of cold, above %.0f%%\n",
                share * 100.0, kMaxWarmShare * 100.0);
    return 1;
  }
  std::printf("SERVE WARM GATE OK\n");
  return 0;
}
