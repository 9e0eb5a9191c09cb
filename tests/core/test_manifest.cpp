// Layer-2 manifest tests: schema-versioned render/parse roundtrip,
// replay artifact comparison and the stale-artifact hygiene cross-check.
#include <gtest/gtest.h>

#include "core/postproc/hygiene.hpp"
#include "core/store/manifest.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"

namespace rebench::store {
namespace {

CampaignManifest sampleManifest() {
  CampaignManifest manifest;
  manifest.invocation.mode = "run";
  manifest.invocation.system = "noctua2";
  manifest.invocation.repeats = 2;
  manifest.invocation.benchmark = "babelstream";
  manifest.invocation.ntimes = 10;
  manifest.invocation.settings = {{"model", "omp"}};
  manifest.invocation.faults = "seed=7,crash=0.1";
  manifest.invocation.retries = 3;
  manifest.invocation.withStore = true;

  RunManifest run;
  run.test = "BabelstreamTest_omp";
  run.target = "noctua2:normal";
  run.repeat = 0;
  run.environ = "gcc@12.1.0";
  run.spec = "babelstream@4.0%gcc@12.1.0";
  run.specHash = "abc123";
  run.planHash = "def456";
  run.binaryId = "bin789";
  run.buildSteps = {"spack install babelstream", "module load gcc"};
  run.launchCommand = "srun -n 1 ./babelstream";
  run.jobId = "42";
  run.outcome = "pass";
  run.attempts = 2;
  manifest.runs.push_back(run);

  ArtifactRecord perflog;
  perflog.name = "perflog";
  perflog.hash = ObjectStore::hashBytes("line1\nline2\n");
  perflog.bytes = 12;
  manifest.artifacts.push_back(perflog);

  history::FomAggregate fom;
  fom.test = "BabelstreamTest_omp";
  fom.target = "noctua2:normal";
  fom.fom = "Triad";
  fom.specHash = "abc123";
  fom.mean = 123.5;
  fom.min = 120.0;
  fom.max = 125.0;
  fom.ciHalfwidth = 1.25;
  fom.ess = 2.0;
  fom.autocorr = -0.5;
  fom.repeats = 2;
  manifest.foms.push_back(fom);
  return manifest;
}

TEST(ManifestTest, RenderParseRoundtrip) {
  const CampaignManifest manifest = sampleManifest();
  const CampaignManifest parsed = CampaignManifest::parse(manifest.render());
  EXPECT_EQ(parsed.schema, kManifestSchema);
  EXPECT_EQ(parsed.invocation.mode, "run");
  EXPECT_EQ(parsed.invocation.system, "noctua2");
  EXPECT_EQ(parsed.invocation.repeats, 2);
  EXPECT_EQ(parsed.invocation.benchmark, "babelstream");
  EXPECT_EQ(parsed.invocation.ntimes, 10);
  ASSERT_EQ(parsed.invocation.settings.size(), 1u);
  EXPECT_EQ(parsed.invocation.settings[0].first, "model");
  EXPECT_EQ(parsed.invocation.settings[0].second, "omp");
  EXPECT_EQ(parsed.invocation.faults, "seed=7,crash=0.1");
  EXPECT_EQ(parsed.invocation.retries, 3);
  EXPECT_TRUE(parsed.invocation.withStore);
  EXPECT_TRUE(parsed.invocation.cache);

  ASSERT_EQ(parsed.runs.size(), 1u);
  const RunManifest& run = parsed.runs[0];
  EXPECT_EQ(run.test, "BabelstreamTest_omp");
  EXPECT_EQ(run.target, "noctua2:normal");
  EXPECT_EQ(run.specHash, "abc123");
  EXPECT_EQ(run.planHash, "def456");
  EXPECT_EQ(run.binaryId, "bin789");
  ASSERT_EQ(run.buildSteps.size(), 2u);
  EXPECT_EQ(run.buildSteps[0], "spack install babelstream");
  EXPECT_EQ(run.outcome, "pass");
  EXPECT_EQ(run.attempts, 2);

  ASSERT_EQ(parsed.artifacts.size(), 1u);
  EXPECT_EQ(parsed.artifacts[0].name, "perflog");
  EXPECT_EQ(parsed.artifacts[0].bytes, 12u);

  ASSERT_EQ(parsed.foms.size(), 1u);
  const history::FomAggregate& fom = parsed.foms[0];
  EXPECT_EQ(fom.fom, "Triad");
  EXPECT_EQ(fom.mean, 123.5);
  EXPECT_EQ(fom.ciHalfwidth, 1.25);
  EXPECT_EQ(fom.ess, 2.0);
  EXPECT_EQ(fom.autocorr, -0.5);
  EXPECT_EQ(fom.repeats, 2);
  // The manifest view renders no spec hash, min or max: they parse back
  // as defaults, and the render below still round-trips.
  EXPECT_EQ(fom.specHash, "");
  EXPECT_EQ(fom.min, 0.0);
  EXPECT_EQ(fom.max, 0.0);

  // Deterministic rendering: parse -> render is a fixed point.
  EXPECT_EQ(parsed.render(), manifest.render());
  EXPECT_EQ(parsed.contentHash(), manifest.contentHash());
}

TEST(ManifestTest, SchemaMismatchThrows) {
  CampaignManifest manifest = sampleManifest();
  manifest.schema = "rebench.manifest/999";
  EXPECT_THROW(CampaignManifest::parse(manifest.render()), Error);
}

TEST(ManifestTest, MalformedJsonThrows) {
  EXPECT_THROW(CampaignManifest::parse("{\"schema\":"), ParseError);
  EXPECT_THROW(CampaignManifest::parse("[1,2,3]"), ParseError);
}

TEST(ManifestTest, CompareArtifactsReportsDivergence) {
  CampaignManifest manifest;
  manifest.artifacts.push_back(
      {"perflog", ObjectStore::hashBytes("recorded bytes"), 14});
  manifest.artifacts.push_back(
      {"trace", ObjectStore::hashBytes("trace bytes"), 11});

  // Exact reproduction.
  const ReplayComparison exact = compareArtifacts(
      manifest,
      {{"perflog", "recorded bytes"}, {"trace", "trace bytes"}});
  EXPECT_TRUE(exact.allExact());
  const std::string exactReport = renderReplayReport(exact);
  EXPECT_NE(exactReport.find("2/2 artifact(s) byte-exact"),
            std::string::npos);

  // One artifact drifted, one was never regenerated.
  const ReplayComparison diverged =
      compareArtifacts(manifest, {{"perflog", "different bytes"}});
  EXPECT_FALSE(diverged.allExact());
  ASSERT_EQ(diverged.artifacts.size(), 1u);
  EXPECT_FALSE(diverged.artifacts[0].exact);
  ASSERT_EQ(diverged.missing.size(), 1u);
  EXPECT_EQ(diverged.missing[0], "trace");
  const std::string report = renderReplayReport(diverged);
  EXPECT_NE(report.find("DIVERGENT"), std::string::npos);
  EXPECT_NE(report.find("MISSING"), std::string::npos);
  EXPECT_NE(report.find("0/2 artifact(s) byte-exact"), std::string::npos);
}

PerfLogEntry entryWith(const std::string& binaryId,
                       const std::string& specHash) {
  PerfLogEntry entry;
  entry.system = "noctua2";
  entry.partition = "normal";
  entry.testName = "BabelstreamTest_omp";
  entry.fomName = "Triad";
  entry.value = 100.0;
  entry.result = "pass";
  entry.binaryId = binaryId;
  entry.specHash = specHash;
  return entry;
}

TEST(ManifestTest, StaleArtifactAuditFlagsMismatchedProvenance) {
  const CampaignManifest manifest = sampleManifest();

  // Matching provenance: clean.
  const std::vector<PerfLogEntry> fresh{entryWith("bin789", "abc123")};
  EXPECT_TRUE(auditAgainstManifest(fresh, manifest).empty());

  // A result carried over from an older build: stale.
  const std::vector<PerfLogEntry> stale{entryWith("oldbinary", "abc123")};
  const auto findings = auditAgainstManifest(stale, manifest);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, HygieneRule::kStaleArtifact);
  EXPECT_EQ(findings[0].subject, "BabelstreamTest_omp@noctua2:normal");
  EXPECT_NE(findings[0].detail.find("stale artifact"), std::string::npos);
  EXPECT_EQ(hygieneRuleName(HygieneRule::kStaleArtifact), "stale-artifact");

  // Spec-hash drift is stale too, even with a familiar binary id.
  const std::vector<PerfLogEntry> driftedSpec{entryWith("bin789", "zzz")};
  EXPECT_EQ(auditAgainstManifest(driftedSpec, manifest).size(), 1u);

  // Tuples the manifest never ran are out of scope.
  std::vector<PerfLogEntry> other{entryWith("whatever", "whatever")};
  other[0].testName = "SomeOtherTest";
  EXPECT_TRUE(auditAgainstManifest(other, manifest).empty());

  // Error entries are skipped (they carry no reportable result).
  std::vector<PerfLogEntry> errored{entryWith("oldbinary", "abc123")};
  errored[0].result = "error";
  EXPECT_TRUE(auditAgainstManifest(errored, manifest).empty());
}

}  // namespace
}  // namespace rebench::store
