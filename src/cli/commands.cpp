// The rebench CLI's flag tables: every flag of every subcommand, declared
// once.  Args::parse, the value checks and usageText() all read these.
#include "cli/args.hpp"

namespace rebench::cli {
namespace {

using enum Kind;
using Flags = std::vector<Flag>;

constexpr Flag required(Flag flag) {
  flag.required = true;
  return flag;
}

Flags concat(std::initializer_list<std::span<const Flag>> groups) {
  Flags all;
  for (const std::span<const Flag> group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

// How a run/suite/submit campaign executes; recorded in its manifest.
constexpr Flag kCampaign[] = {
    {"system", kString, "S", "system[:partition] (default local)"},
    {"account", kString, "A", "scheduler account (default ec999)"},
    {"repeats", kCount, "N", "repeats per test (default 1)"},
    {"faults", kString, "FILE|SPEC",
     "seeded fault injection (seed,crash,node,preempt,build,corrupt,teldrop)"},
    {"retries", kInt, "N", "retries of a transient failure"},
    {"backoff-base", kNumber, "S", "first retry backoff, seconds"},
    {"backoff-mult", kNumber, "X", "backoff growth per retry"},
    {"backoff-max", kNumber, "S", "backoff cap, seconds"},
    {"quarantine-after", kCount, "N",
     "quarantine a (test, target) after N infrastructure failures"},
    {"stage-timeout", kPositive, "S", "watchdog: fail a stage after S seconds"},
    {"lanes", kCount, "N", "profiling lane width (default 8)"},
    {"ci-halfwidth", kPositive, "R",
     "adaptive: repeat until each FOM's 95% CI is within +/-R"},
    {"min-repeats", kCount, "N", "adaptive: fewest repeats"},
    {"max-repeats", kCount, "N", "adaptive: most repeats"},
    {"probe", kChoice, "sim|real", "per-stage resource accounting"},
    {"no-cache", kSwitch, "", "never reuse a build from the store"},
};
// What a run-mode campaign runs.
constexpr Flag kBenchmark[] = {
    {"benchmark", kChoice, "babelstream|hpcg|hpgmg", "benchmark to run"},
    {"S", kSetting, "key=value", "benchmark setting (repeatable):"},
    {"ntimes", kCount, "N", "BabelStream iterations"},
};
// Which builtin-suite tests a suite-mode campaign runs (ReFrame's -n/-x).
constexpr Flag kSelection[] = {
    {"tag", kString, "T", "tests tagged T"},
    {"n", kString, "PAT", "only tests whose name contains PAT"},
    {"x", kString, "PAT", "skip tests whose name contains PAT"},
};
// Where a run/suite campaign leaves its results.
constexpr Flag kOutputs[] = {
    {"perflog", kString, "F", "append perflog lines to F"},
    {"trace", kString, "DIR", "write DIR/trace.jsonl"},
    {"store", kString, "DIR", "artifact store: builds, manifest, history"},
    {"metrics-out", kString, "FILE", "export metrics + FOMs as OpenMetrics"},
};
constexpr Flag kChrome[] = {{"chrome", kString, "F", "catapult JSON export"}};
constexpr Flag kThreshold[] = {
    {"threshold", kNumber, "X", "relative regression threshold (0.05)"}};

constexpr Flag kSettings[] = {
    {"model", kString, "M", "babelstream: programming model"},
    {"array_size", kCount, "N", "babelstream: array length"},
    {"operator", kChoice, "csr|csr-opt|matrix-free|lfric", "hpcg: operator"},
    {"grid", kCount, "N", "hpcg: local grid size"},
    {"multigrid", kChoice, "0|1|false|true", "hpcg: MG preconditioner"},
    {"num_tasks", kCount, "N", "hpcg, hpgmg: MPI tasks"},
    {"num_tasks_per_node", kCount, "N", "hpgmg: tasks per node"},
    {"num_cpus_per_task", kCount, "N", "hpgmg: CPUs per task"},
    {"log2_box_dim", kCount, "N", "hpgmg: log2 of the box edge"},
    {"boxes_per_rank", kCount, "N", "hpgmg: target boxes per rank"},
};

}  // namespace

std::span<const Flag> settingsTable() { return kSettings; }

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"list-systems", "", 0, 0, "configured systems and partitions", {}},
      {"list-packages", "", 0, 0, "recipe repository contents", {}},
      {"spec", "<spec>", 1, 1, "concretize a spec on a system",
       {{"system", kString, "S", "system whose environment to use"},
        {"env-file", kString, "F", "hand-authored environment (see env)"},
        {"trace", kSwitch, "", "print the concretizer's decisions"}}},
      {"env", "", 0, 0, "a system's captured environment",
       {{"system", kString, "S", "system (default local)"}}},
      {"run", "", 0, 0, "run one benchmark through the pipeline",
       concat({kBenchmark, kCampaign, kOutputs,
               Flags{{"verbose", kSwitch, "", "print spec + launch line"}}})},
      {"suite", "", 0, 0, "run a selection of the builtin suite",
       concat({kSelection, kCampaign, kOutputs,
               Flags{{"jobs", kCount, "N", "workers; output is N-independent"},
                     {"resume", kString, "DIR", "resume from journal DIR"}}})},
      {"replay", "<manifest>", 1, 1,
       "re-execute a campaign manifest; exit 1 unless byte-exact", {}},
      {"trace-report", "<trace>", 1, 1, "per-stage timing and metrics",
       concat({Flags{{"tree", kSwitch, "", "add the span tree"},
                     {"json", kSwitch, "", "machine-readable report"}},
               kChrome})},
      {"profile", "<trace>", 1, 1,
       "lane Gantt, utilization and critical path of a campaign trace",
       concat({Flags{{"json", kSwitch, "", "machine-readable profile"},
                     {"diff", kString, "A",
                      "align trace A with <trace>; exit 1 on regression"}},
               kThreshold, kChrome})},
      {"audit", "", 0, 0, "Bailey/Hoefler-Belli hygiene audit; exit 1 if any",
       {required({"perflog", kString, "F", "perflog to audit"}),
        {"strict", kSwitch, "", "also require reference values"},
        {"manifest", kString, "M", "flag results from stale artifacts"}}},
      {"report", "", 0, 0, "tabulate or plot a perflog",
       {required({"perflog", kString, "F", "perflog to read"}),
        {"fom", kString, "NAME", "only this figure of merit"},
        {"stats", kSwitch, "", "Hoefler-Belli statistics"},
        {"plot", kSwitch, "", "bar chart"},
        {"frame-cache", kString, "DIR",
         "reuse a verified columnar perflog copy"}}},
      {"history", "[<test> [<target>]]", 0, 2,
       "longitudinal FOM history (--store or --perflog)",
       {{"store", kString, "DIR", "campaign store: trends, gate"},
        {"json", kSwitch, "", "machine-readable output"},
        {"window", kCount, "N", "rolling window (5; perflog 8)"},
        {"check", kSwitch, "", "gate the newest record"},
        {"threshold", kNumber, "X", "relevant drop (0.05)"},
        {"perflog", kString, "F", "legacy: perflog history"},
        {"detect", kSwitch, "", "legacy: flag regressions"},
        {"sigmas", kPositive, "X", "legacy: detector width (3)"}}},
      {"compare", "", 0, 0, "before/after perflog gate; exit 1 on regression",
       concat({Flags{required({"before", kString, "A", "baseline perflog"}),
                     required({"after", kString, "B", "candidate perflog"})},
               kThreshold})},
      {"submit", "", 0, 0, "queue a run (--benchmark) or suite campaign",
       concat({Flags{required({"queue", kString, "DIR", "serve queue"})},
               kBenchmark, kSelection, kCampaign})},
      {"serve", "", 0, 0, "crash-safe continuous-benchmarking daemon",
       {required({"queue", kString, "DIR", "submission queue"}),
        {"store", kString, "DIR", "store to run against (needed to drain)"},
        {"once", kSwitch, "", "drain the queue once, then exit"},
        {"jobs", kCount, "N", "campaign workers"},
        {"stage-timeout", kPositive, "S", "default stage watchdog, seconds"},
        {"submission-timeout", kPositive, "S", "per-submission watchdog"},
        {"quarantine-after", kCount, "N", "refuse after N crashes (3)"},
        {"trace", kString, "DIR", "write DIR/trace.jsonl"},
        {"metrics-out", kString, "FILE", "export metrics as OpenMetrics"},
        {"request-drain", kSwitch, "", "ask the running daemon to drain"},
        {"clear-drain", kSwitch, "", "withdraw a drain request"},
        {"listen", kString, "HOST:PORT", "live HTTP endpoint (port 0: any)"},
        {"crash-after", kChoice, "claim|executed|verdict",
         "test hook: exit 3 at this journal checkpoint"}}},
      {"status", "", 0, 0, "health + newest flight record of a serve queue",
       {required({"queue", kString, "DIR", "serve queue"}),
        {"follow", kSwitch, "", "stream verdicts until the daemon exits"},
        {"fetch", kString, "PATH", "print one endpoint response verbatim"}}},
  };
  return table;
}

}  // namespace rebench::cli
