// Campaign execution as a library (rebench::service).
//
// Everything the CLI's run/suite tail used to do inline — expand an
// invocation into pipeline options, write the campaign manifest, append
// history, gate the newest records — factored out so the serve daemon
// and the CLI drive the exact same code paths and therefore produce the
// exact same bytes.  Also home of `runKeyFor`, the run-memoization key:
// a campaign whose key is unchanged would reproduce its recorded
// artifacts byte-for-byte, so serve answers it from the RunCache instead
// of re-executing.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/framework/pipeline.hpp"
#include "core/history/history.hpp"
#include "core/infer/controller.hpp"
#include "core/service/journal.hpp"
#include "core/store/manifest.hpp"

namespace rebench::store {
class ObjectStore;
}  // namespace rebench::store

namespace rebench::service {

/// Expands an invocation into pipeline options; unset sentinel fields
/// (-1 / "") keep the pipeline defaults, so a replayed manifest or a
/// queued submission resolves to exactly the options the original flags
/// did.
PipelineOptions pipelineOptionsFor(const store::CampaignInvocation& inv);

/// The invocation's adaptive run-length settings (--ci-halfwidth /
/// --min-repeats / --max-repeats); inactive (ciHalfwidth 0) when the
/// invocation asked for fixed repeats.
infer::InferenceOptions inferenceOptionsFor(const store::CampaignInvocation& inv);

/// One campaign execution, fixed-repeat or adaptive.
struct CampaignExecution {
  std::vector<TestRunResult> results;
  infer::ControllerReport inference;  // empty unless adaptive
  bool adaptive = false;
};

/// Dispatches the campaign: adaptive invocations run the rebench::infer
/// controller (sample-until-converged, summary perflog rows,
/// infer.controller spans), fixed-repeat ones run Pipeline::runAll.
/// The CLI run/suite/replay commands and the serve daemon execute through
/// here so their bytes agree.
CampaignExecution executeCampaign(Pipeline& pipeline,
                                  std::span<const RegressionTest> tests,
                                  std::span<const std::string> targets,
                                  const store::CampaignInvocation& inv,
                                  PerfLog* perflog, RunJournal* journal,
                                  CampaignReport* report);

/// Serializes perflog lines to the byte stream a manifest hashes.
std::string perflogBytes(const PerfLog& perflog);

/// Provenance record for one executed pipeline run; the build plan is
/// re-derived from the concretized spec so the manifest lists the exact
/// reproduction commands without the pipeline threading them through.
store::RunManifest runManifestFor(const TestRunResult& result, int repeat);

/// Outcome of writing a campaign manifest into a store.
struct ManifestWrite {
  std::string hash;  // manifest contentHash
  std::string path;  // DIR/manifests/campaign-<hash>.json
};

/// Stores campaign artifacts and writes the manifest (plus the
/// latest.json convenience copy).  `traceBytes` may be null; when given
/// it is recorded only if `pinTrace` (cache-cold or caching-off
/// campaigns — warm store.* spans are not replayable).
ManifestWrite writeCampaignManifest(store::ObjectStore& store,
                                    const store::CampaignInvocation& inv,
                                    std::span<const TestRunResult> results,
                                    const PerfLog& perflog,
                                    const std::string* traceBytes,
                                    bool pinTrace);

/// Reduces finished campaign results to the journal's executed record:
/// the aggregates `foms` (history::aggregateFoms of `results`), total
/// simulated seconds, the first failure (if any) and whether every
/// failure was permanent (memoizable).
ExecutedRecord summarizeCampaignOutcome(std::span<const TestRunResult> results,
                                        std::span<const history::FomAggregate> foms,
                                        const std::string& manifestHash,
                                        const std::string& perflogHash);

struct HistoryAppendResult {
  std::string segment;  // "" when nothing was appended
  int records = 0;
};

/// Appends one history record per aggregate in `outcome`, citing its
/// manifest hash.  With `skipIfCited` (the serve daemon's exactly-once
/// guard) the append is idempotent: when the history already cites this
/// manifest hash nothing is appended.  The CLI passes false — repeated
/// identical campaigns are distinct observations there.  Throws
/// rebench::Error when the history head is unreadable (degraded-mode
/// trigger for serve).
HistoryAppendResult appendCampaignHistory(store::ObjectStore& store,
                                          const ExecutedRecord& outcome,
                                          const SystemRegistry& systems,
                                          bool skipIfCited);

/// Runs the statistically-grounded regression gate over the series this
/// campaign touched: reads the full history and checks each (test,
/// target, fom) series the outcome's aggregates name.  Returns the
/// per-series results (only for touched series).  With a tracer
/// attached, one `infer.changepoint` span per gated series carries the
/// decision evidence (test/target/fom/repeats/ess/ci_halfwidth — the
/// trace_lint contract — plus regression/changepoint flags).  Throws
/// rebench::Error when the history is unreadable.
std::vector<history::GateResult> gateCampaign(
    store::ObjectStore& store, const ExecutedRecord& outcome,
    const history::GateOptions& options, obs::Tracer* tracer = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

/// The run-memoization key: hash(invocation bytes + environment
/// fingerprint + system/partition configuration + concretized spec DAG
/// hashes).  Everything that could change recorded bytes is in here;
/// anything not in here (e.g. --jobs) is byte-invariant by construction.
std::string runKeyFor(const store::CampaignInvocation& inv,
                      const SystemRegistry& systems,
                      const PackageRepository& repo,
                      std::span<const RegressionTest> tests);

}  // namespace rebench::service
