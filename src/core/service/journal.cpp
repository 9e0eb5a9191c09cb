#include "core/service/journal.hpp"

#include <charconv>
#include <filesystem>
#include <sstream>

#include "core/fault/journal.hpp"
#include "core/obs/json.hpp"
#include "core/util/error.hpp"

namespace rebench::service {

namespace {

using obs::json::quote;

std::string renderExecuted(const std::string& submission,
                           const ExecutedRecord& record) {
  std::ostringstream out;
  out << "{\"kind\":\"executed\",\"submission\":" << quote(submission)
      << ",\"key\":" << quote(record.key)
      << ",\"manifest\":" << quote(record.manifestHash)
      << ",\"perflog\":" << quote(record.perflogHash)
      << ",\"runs\":" << record.runs
      << ",\"sim_seconds\":" << formatExact(record.simSeconds)
      << ",\"aggregates\":[";
  for (std::size_t i = 0; i < record.aggregates.size(); ++i) {
    const history::FomAggregate& agg = record.aggregates[i];
    if (i > 0) out << ",";
    out << "{\"test\":" << quote(agg.test)
        << ",\"target\":" << quote(agg.target)
        << ",\"fom\":" << quote(agg.fom)
        << ",\"spec\":" << quote(agg.specHash)
        << ",\"mean\":" << formatExact(agg.mean)
        << ",\"min\":" << formatExact(agg.min)
        << ",\"max\":" << formatExact(agg.max)
        << ",\"ci\":" << formatExact(agg.ciHalfwidth)
        << ",\"ess\":" << formatExact(agg.ess)
        << ",\"repeats\":" << agg.repeats << "}";
  }
  out << "],\"failedStage\":" << quote(record.failedStage)
      << ",\"failureClass\":" << quote(record.failureClass)
      << ",\"failureDetail\":" << quote(record.failureDetail);
  if (record.permanentFailure) out << ",\"permanentFailure\":true";
  out << "}";
  return out.str();
}

ExecutedRecord parseExecuted(const obs::json::Value& value) {
  ExecutedRecord record;
  record.key = value.stringOr("key", "");
  record.manifestHash = value.stringOr("manifest", "");
  record.perflogHash = value.stringOr("perflog", "");
  record.runs = static_cast<int>(value.numberOr("runs", 0));
  record.simSeconds = value.numberOr("sim_seconds", 0.0);
  if (value.contains("aggregates")) {
    for (const obs::json::Value& item : value.at("aggregates").array) {
      record.aggregates.push_back(history::FomAggregate::parse(item));
    }
  }
  record.failedStage = value.stringOr("failedStage", "");
  record.failureClass = value.stringOr("failureClass", "");
  record.failureDetail = value.stringOr("failureDetail", "");
  record.permanentFailure = value.contains("permanentFailure") &&
                            value.at("permanentFailure").boolean;
  return record;
}

}  // namespace

std::string formatExact(double value) {
  char buffer[32];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) throw Error("cannot format double");
  return std::string(buffer, ptr);
}

std::string ServiceJournal::pathFor(const std::string& queueDir) {
  return (std::filesystem::path(queueDir) / "service-journal.jsonl")
      .string();
}

ServiceJournal::ServiceJournal(const std::string& queueDir)
    : path_(pathFor(queueDir)) {
  std::filesystem::create_directories(queueDir);
  corruptLines_ = openJsonLog(
      path_, kServiceJournalSchema, [&](const obs::json::Value& record) {
        const std::string kind = record.stringOr("kind", "");
        const std::string id = record.stringOr("submission", "");
        if (id.empty()) return;
        Entry& entry = entries_[id];
        if (kind == "claim") {
          // A claim while one is already pending means a previous daemon
          // died between claim and executed — a crash loop in the making.
          if (entry.pendingClaim) ++entry.crashedClaims;
          entry.pendingClaim = true;
          entry.state = State::kClaimed;
        } else if (kind == "executed") {
          entry.pendingClaim = false;
          entry.state = State::kExecuted;
          entry.executed = parseExecuted(record);
        } else if (kind == "verdict") {
          entry.pendingClaim = false;
          entry.state = State::kVerdict;
          entry.verdict = VerdictRecord::parseFields(record);
        } else if (kind == "done") {
          entry.pendingClaim = false;
          entry.state = State::kDone;
        }
      });
  // A claim still pending at end-of-load is the same crash signature.
  for (auto& [id, entry] : entries_) {
    if (entry.pendingClaim) {
      ++entry.crashedClaims;
      entry.pendingClaim = false;
    }
  }
}

ServiceJournal::State ServiceJournal::state(
    const std::string& submission) const {
  auto it = entries_.find(submission);
  return it == entries_.end() ? State::kNone : it->second.state;
}

const ExecutedRecord* ServiceJournal::executed(
    const std::string& submission) const {
  auto it = entries_.find(submission);
  if (it == entries_.end() || !it->second.executed) return nullptr;
  return &*it->second.executed;
}

const VerdictRecord* ServiceJournal::verdictOf(
    const std::string& submission) const {
  auto it = entries_.find(submission);
  if (it == entries_.end() || !it->second.verdict) return nullptr;
  return &*it->second.verdict;
}

int ServiceJournal::crashedClaims(const std::string& submission) const {
  auto it = entries_.find(submission);
  return it == entries_.end() ? 0 : it->second.crashedClaims;
}

void ServiceJournal::recordClaim(const std::string& submission,
                                 const std::string& key) {
  durableAppendLine(path_, "{\"kind\":\"claim\",\"submission\":" +
                               quote(submission) + ",\"key\":" + quote(key) +
                               "}");
  Entry& entry = entries_[submission];
  entry.state = State::kClaimed;
}

void ServiceJournal::recordExecuted(const std::string& submission,
                                    const ExecutedRecord& record) {
  durableAppendLine(path_, renderExecuted(submission, record));
  Entry& entry = entries_[submission];
  entry.state = State::kExecuted;
  entry.executed = record;
}

void ServiceJournal::recordVerdict(const std::string& submission,
                                   const VerdictRecord& record) {
  durableAppendLine(path_, "{\"kind\":\"verdict\",\"submission\":" +
                               quote(submission) + "," +
                               record.renderFields() + "}");
  Entry& entry = entries_[submission];
  entry.state = State::kVerdict;
  entry.verdict = record;
}

void ServiceJournal::recordDone(const std::string& submission) {
  durableAppendLine(path_, "{\"kind\":\"done\",\"submission\":" +
                               quote(submission) + "}");
  entries_[submission].state = State::kDone;
}

}  // namespace rebench::service
