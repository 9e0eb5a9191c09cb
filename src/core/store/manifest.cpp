#include "core/store/manifest.hpp"

#include <fstream>
#include <sstream>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/util/error.hpp"
#include "core/util/hash.hpp"
#include "core/util/strings.hpp"

namespace rebench::store {

namespace {
using obs::json::quote;
}  // namespace

std::string renderInvocation(const CampaignInvocation& inv) {
  std::ostringstream out;
  out << "{\"mode\":" << quote(inv.mode)
      << ",\"system\":" << quote(inv.system)
      << ",\"account\":" << quote(inv.account)
      << ",\"repeats\":" << inv.repeats
      << ",\"benchmark\":" << quote(inv.benchmark)
      << ",\"ntimes\":" << inv.ntimes << ",\"settings\":[";
  for (std::size_t i = 0; i < inv.settings.size(); ++i) {
    if (i > 0) out << ",";
    out << "[" << quote(inv.settings[i].first) << ","
        << quote(inv.settings[i].second) << "]";
  }
  out << "],\"tag\":" << quote(inv.tag)
      << ",\"n\":" << quote(inv.namePattern)
      << ",\"x\":" << quote(inv.excludePattern)
      << ",\"faults\":" << quote(inv.faults)
      << ",\"retries\":" << inv.retries
      << ",\"backoffBase\":" << str::fixed(inv.backoffBase, 6)
      << ",\"backoffMultiplier\":" << str::fixed(inv.backoffMultiplier, 6)
      << ",\"backoffMax\":" << str::fixed(inv.backoffMax, 6)
      << ",\"quarantineAfter\":" << inv.quarantineAfter
      << ",\"stageTimeout\":" << str::fixed(inv.stageTimeout, 6)
      << ",\"lanes\":" << inv.lanes
      << ",\"ciHalfwidth\":" << str::fixed(inv.ciHalfwidth, 6)
      << ",\"minRepeats\":" << inv.minRepeats
      << ",\"maxRepeats\":" << inv.maxRepeats
      << ",\"withStore\":" << (inv.withStore ? "true" : "false")
      << ",\"cache\":" << (inv.cache ? "true" : "false")
      << ",\"probe\":" << quote(inv.probe) << "}";
  return out.str();
}

CampaignInvocation parseInvocation(const obs::json::Value& value) {
  CampaignInvocation inv;
  inv.mode = value.stringOr("mode", "");
  inv.system = value.stringOr("system", "local");
  inv.account = value.stringOr("account", "ec999");
  inv.repeats = static_cast<int>(value.numberOr("repeats", 1));
  inv.benchmark = value.stringOr("benchmark", "");
  inv.ntimes = static_cast<int>(value.numberOr("ntimes", -1));
  if (value.contains("settings")) {
    for (const obs::json::Value& pair : value.at("settings").array) {
      if (pair.array.size() == 2) {
        inv.settings.emplace_back(pair.array[0].text, pair.array[1].text);
      }
    }
  }
  inv.tag = value.stringOr("tag", "");
  inv.namePattern = value.stringOr("n", "");
  inv.excludePattern = value.stringOr("x", "");
  inv.faults = value.stringOr("faults", "");
  inv.retries = static_cast<int>(value.numberOr("retries", -1));
  inv.backoffBase = value.numberOr("backoffBase", -1.0);
  inv.backoffMultiplier = value.numberOr("backoffMultiplier", -1.0);
  inv.backoffMax = value.numberOr("backoffMax", -1.0);
  inv.quarantineAfter =
      static_cast<int>(value.numberOr("quarantineAfter", -1));
  inv.stageTimeout = value.numberOr("stageTimeout", -1.0);
  inv.lanes = static_cast<int>(value.numberOr("lanes", -1));
  inv.ciHalfwidth = value.numberOr("ciHalfwidth", -1.0);
  inv.minRepeats = static_cast<int>(value.numberOr("minRepeats", -1));
  inv.maxRepeats = static_cast<int>(value.numberOr("maxRepeats", -1));
  inv.withStore =
      value.contains("withStore") && value.at("withStore").boolean;
  inv.cache = !value.contains("cache") || value.at("cache").boolean;
  inv.probe = value.stringOr("probe", "");
  return inv;
}

namespace {

std::string renderRun(const RunManifest& run) {
  std::ostringstream out;
  out << "{\"test\":" << quote(run.test)
      << ",\"target\":" << quote(run.target)
      << ",\"repeat\":" << run.repeat
      << ",\"environ\":" << quote(run.environ)
      << ",\"spec\":" << quote(run.spec)
      << ",\"specHash\":" << quote(run.specHash)
      << ",\"planHash\":" << quote(run.planHash)
      << ",\"binaryId\":" << quote(run.binaryId) << ",\"buildSteps\":[";
  for (std::size_t i = 0; i < run.buildSteps.size(); ++i) {
    if (i > 0) out << ",";
    out << quote(run.buildSteps[i]);
  }
  out << "],\"launch\":" << quote(run.launchCommand)
      << ",\"jobId\":" << quote(run.jobId)
      << ",\"outcome\":" << quote(run.outcome)
      << ",\"failureStage\":" << quote(run.failureStage)
      << ",\"attempts\":" << run.attempts;
  // Rendered only when present so unprobed manifests keep their bytes.
  if (!run.facets.empty()) {
    out << ",\"facets\":{";
    bool first = true;
    for (const auto& [key, value] : run.facets) {
      if (!first) out << ",";
      first = false;
      out << quote(key) << ":" << quote(value);
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

RunManifest parseRun(const obs::json::Value& value) {
  RunManifest run;
  run.test = value.stringOr("test", "");
  run.target = value.stringOr("target", "");
  run.repeat = static_cast<int>(value.numberOr("repeat", 0));
  run.environ = value.stringOr("environ", "");
  run.spec = value.stringOr("spec", "");
  run.specHash = value.stringOr("specHash", "");
  run.planHash = value.stringOr("planHash", "");
  run.binaryId = value.stringOr("binaryId", "");
  if (value.contains("buildSteps")) {
    for (const obs::json::Value& step : value.at("buildSteps").array) {
      run.buildSteps.push_back(step.text);
    }
  }
  run.launchCommand = value.stringOr("launch", "");
  run.jobId = value.stringOr("jobId", "");
  run.outcome = value.stringOr("outcome", "");
  run.failureStage = value.stringOr("failureStage", "");
  run.attempts = static_cast<int>(value.numberOr("attempts", 1));
  if (value.contains("facets")) {
    for (const auto& [key, facet] : value.at("facets").object) {
      run.facets[key] = facet.text;
    }
  }
  return run;
}

}  // namespace

std::string CampaignManifest::render() const {
  std::ostringstream out;
  out << "{\"schema\":" << quote(schema)
      << ",\"invocation\":" << renderInvocation(invocation) << ",\"runs\":[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out << ",";
    out << renderRun(runs[i]);
  }
  out << "],\"foms\":[";
  for (std::size_t i = 0; i < foms.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"test\":" << quote(foms[i].test)
        << ",\"target\":" << quote(foms[i].target)
        << ",\"fom\":" << quote(foms[i].fom)
        << ",\"mean\":" << str::fixed(foms[i].mean, 6)
        << ",\"ci\":" << str::fixed(foms[i].ciHalfwidth, 6)
        << ",\"ess\":" << str::fixed(foms[i].ess, 3)
        << ",\"autocorr\":" << str::fixed(foms[i].autocorr, 6)
        << ",\"repeats\":" << foms[i].repeats << "}";
  }
  out << "],\"artifacts\":[";
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"name\":" << quote(artifacts[i].name)
        << ",\"hash\":" << quote(artifacts[i].hash)
        << ",\"bytes\":" << artifacts[i].bytes << "}";
  }
  out << "]}\n";
  return out.str();
}

CampaignManifest CampaignManifest::parse(const std::string& text) {
  const obs::json::Value value = obs::json::parse(str::trim(text));
  if (!value.isObject()) throw ParseError("manifest: not a JSON object");
  CampaignManifest manifest;
  manifest.schema = value.stringOr("schema", "");
  if (manifest.schema != kManifestSchema) {
    throw Error("manifest schema '" + manifest.schema +
                "' is not supported (expected '" +
                std::string(kManifestSchema) + "')");
  }
  if (value.contains("invocation")) {
    manifest.invocation = parseInvocation(value.at("invocation"));
  }
  if (value.contains("runs")) {
    for (const obs::json::Value& run : value.at("runs").array) {
      manifest.runs.push_back(parseRun(run));
    }
  }
  if (value.contains("foms")) {
    for (const obs::json::Value& fom : value.at("foms").array) {
      manifest.foms.push_back(history::FomAggregate::parse(fom));
    }
  }
  if (value.contains("artifacts")) {
    for (const obs::json::Value& artifact : value.at("artifacts").array) {
      ArtifactRecord record;
      record.name = artifact.stringOr("name", "");
      record.hash = artifact.stringOr("hash", "");
      record.bytes =
          static_cast<std::uint64_t>(artifact.numberOr("bytes", 0));
      manifest.artifacts.push_back(std::move(record));
    }
  }
  return manifest;
}

CampaignManifest CampaignManifest::read(const std::string& path) {
  const std::optional<std::string> text = readWholeFile(path);
  if (!text) throw Error("cannot read manifest '" + path + "'");
  return parse(*text);
}

void CampaignManifest::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot write manifest '" + path + "'");
  out << render();
}

std::string CampaignManifest::contentHash() const {
  return Hasher{}.update(render()).hex();
}

ReplayComparison compareArtifacts(
    const CampaignManifest& manifest,
    const std::map<std::string, std::string>& replayed) {
  ReplayComparison comparison;
  for (const ArtifactRecord& recorded : manifest.artifacts) {
    auto it = replayed.find(recorded.name);
    if (it == replayed.end()) {
      comparison.missing.push_back(recorded.name);
      continue;
    }
    ReplayComparison::Artifact artifact;
    artifact.name = recorded.name;
    artifact.recordedHash = recorded.hash;
    artifact.replayedHash = Hasher{}.update(it->second).hex();
    artifact.exact = artifact.recordedHash == artifact.replayedHash;
    comparison.artifacts.push_back(std::move(artifact));
  }
  return comparison;
}

bool ReplayComparison::allExact() const {
  if (!missing.empty()) return false;
  for (const Artifact& artifact : artifacts) {
    if (!artifact.exact) return false;
  }
  return true;
}

std::string renderReplayReport(const ReplayComparison& comparison) {
  std::string out;
  std::size_t exact = 0;
  for (const ReplayComparison::Artifact& artifact : comparison.artifacts) {
    if (artifact.exact) {
      ++exact;
      out += "  artifact " + artifact.name + ": exact (" +
             artifact.recordedHash + ")\n";
    } else {
      out += "  artifact " + artifact.name + ": DIVERGENT (recorded " +
             artifact.recordedHash + ", replayed " + artifact.replayedHash +
             ")\n";
    }
  }
  for (const std::string& name : comparison.missing) {
    out += "  artifact " + name + ": MISSING (not regenerated by replay)\n";
  }
  out += "replay: " + std::to_string(exact) + "/" +
         std::to_string(comparison.artifacts.size() +
                        comparison.missing.size()) +
         " artifact(s) byte-exact\n";
  return out;
}

}  // namespace rebench::store
