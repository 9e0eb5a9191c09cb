#include "core/service/queue.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"

namespace rebench::service {

namespace fs = std::filesystem;

namespace {

std::string submissionBody(const store::CampaignInvocation& inv) {
  return "{\"schema\":" + obs::json::quote(kSubmissionSchema) +
         ",\"invocation\":" + store::renderInvocation(inv) + "}\n";
}

bool isSubmissionFile(const fs::directory_entry& entry) {
  const std::string name = entry.path().filename().string();
  return entry.is_regular_file() && name.starts_with("sub-") &&
         name.ends_with(".json");
}

}  // namespace

Submission enqueueSubmission(const std::string& queueDir,
                             const store::CampaignInvocation& inv) {
  fs::create_directories(queueDir);
  const std::string body = submissionBody(inv);
  Submission sub;
  sub.id = store::ObjectStore::hashBytes(body);
  sub.path = (fs::path(queueDir) / ("sub-" + sub.id + ".json")).string();
  sub.invocation = inv;
  // Content-addressed name: re-submitting the same invocation rewrites
  // the same bytes to the same file — harmless, still atomic.
  durableWriteFile(sub.path, body);
  return sub;
}

std::vector<Submission> scanQueue(const std::string& queueDir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(queueDir, ec)) {
    if (isSubmissionFile(entry)) paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());

  std::vector<Submission> result;
  for (const std::string& path : paths) {
    Submission sub;
    sub.path = path;
    const std::string stem = fs::path(path).stem().string();
    sub.id = stem.substr(4);  // drop "sub-"
    try {
      const std::optional<std::string> read = readWholeFile(path);
      if (!read) throw Error("cannot read '" + path + "'");
      const std::string& body = *read;
      if (store::ObjectStore::hashBytes(body) != sub.id) {
        sub.valid = false;
        sub.error = "content hash does not match filename (tampered?)";
      } else {
        const obs::json::Value value = obs::json::parse(body);
        const std::string schema = value.stringOr("schema", "");
        if (schema != kSubmissionSchema) {
          sub.valid = false;
          sub.error = "unsupported submission schema '" + schema + "'";
        } else {
          sub.invocation = store::parseInvocation(value.at("invocation"));
        }
      }
    } catch (const Error& e) {
      sub.valid = false;
      sub.error = e.what();
    }
    result.push_back(std::move(sub));
  }
  return result;
}

int countUnanswered(const std::string& queueDir) {
  std::set<std::string> answered;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queueDir) / "verdicts", ec)) {
    answered.insert(entry.path().filename().string());
  }
  int count = 0;
  for (const auto& entry : fs::directory_iterator(queueDir, ec)) {
    // sub-<id>.json is answered by verdicts/<id>.json.
    if (isSubmissionFile(entry) &&
        answered.count(entry.path().filename().string().substr(4)) == 0) {
      ++count;
    }
  }
  return count;
}

std::string VerdictRecord::renderFields() const {
  using obs::json::quote;
  return "\"verdict\":" + quote(verdict) + ",\"key\":" + quote(key) +
         ",\"manifest\":" + quote(manifestHash) +
         ",\"degraded\":" + (degraded ? "true" : "false") +
         ",\"detail\":" + quote(detail);
}

VerdictRecord VerdictRecord::parseFields(const obs::json::Value& value) {
  VerdictRecord record;
  record.verdict = value.stringOr("verdict", "");
  record.key = value.stringOr("key", "");
  record.manifestHash = value.stringOr("manifest", "");
  record.degraded =
      value.contains("degraded") && value.at("degraded").boolean;
  record.detail = value.stringOr("detail", "");
  return record;
}

std::string Verdict::serialize() const {
  using obs::json::quote;
  return "{\"schema\":" + quote(kVerdictSchema) +
         ",\"submission\":" + quote(submission) + "," + renderFields() +
         "}\n";
}

Verdict Verdict::parse(const std::string& text) {
  const obs::json::Value value = obs::json::parse(text);
  if (!value.isObject()) throw Error("verdict is not an object");
  const std::string schema = value.stringOr("schema", "");
  if (schema != kVerdictSchema) {
    throw Error("unsupported verdict schema '" + schema + "'");
  }
  Verdict verdict;
  static_cast<VerdictRecord&>(verdict) = VerdictRecord::parseFields(value);
  verdict.submission = value.stringOr("submission", "");
  return verdict;
}

std::string verdictPath(const std::string& queueDir, const std::string& id) {
  return (fs::path(queueDir) / "verdicts" / (id + ".json")).string();
}

void writeVerdict(const std::string& queueDir, const Verdict& verdict) {
  fs::create_directories(fs::path(queueDir) / "verdicts");
  durableWriteFile(verdictPath(queueDir, verdict.submission),
                   verdict.serialize());
}

bool drainRequested(const std::string& queueDir) {
  return fs::exists(fs::path(queueDir) / "drain");
}

void requestDrain(const std::string& queueDir) {
  fs::create_directories(queueDir);
  durableWriteFile((fs::path(queueDir) / "drain").string(), "drain\n");
}

void clearDrainRequest(const std::string& queueDir) {
  std::error_code ec;
  fs::remove(fs::path(queueDir) / "drain", ec);
}

}  // namespace rebench::service
