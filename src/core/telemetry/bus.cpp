#include "core/telemetry/bus.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/obs/json.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::telemetry {

namespace fs = std::filesystem;

std::string renderEvent(const TelemetryEvent& event) {
  std::ostringstream out;
  out << "{\"seq\":" << event.seq
      << ",\"t\":" << str::fixed(event.wallSeconds, 6)
      << ",\"kind\":" << obs::json::quote(event.kind)
      << ",\"submission\":" << obs::json::quote(event.submission)
      << ",\"stage\":" << obs::json::quote(event.stage);
  if (!event.attrs.empty()) {
    out << ",\"attrs\":{";
    bool first = true;
    for (const auto& [key, value] : event.attrs) {
      if (!first) out << ",";
      first = false;
      out << obs::json::quote(key) << ":" << obs::json::quote(value);
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

EventBus::EventBus(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t EventBus::publish(std::string kind, std::string submission,
                                std::string stage, obs::AttrMap attrs,
                                double* wallSecondsOut) {
  TelemetryEvent event;
  event.seq = nextSeq_.fetch_add(1, std::memory_order_relaxed);
  event.wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
          .count();
  if (wallSecondsOut != nullptr) *wallSecondsOut = event.wallSeconds;
  event.kind = std::move(kind);
  event.submission = std::move(submission);
  event.stage = std::move(stage);
  event.attrs = std::move(attrs);
  const std::uint64_t seq = event.seq;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.push_back(std::move(event));
    while (ring_.size() > capacity_) {
      ring_.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return seq;
}

std::uint64_t EventBus::lastSeq() const {
  return nextSeq_.load(std::memory_order_relaxed) - 1;
}

std::uint64_t EventBus::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::vector<TelemetryEvent> EventBus::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::vector<TelemetryEvent> EventBus::since(std::uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TelemetryEvent> out;
  for (const TelemetryEvent& event : ring_) {
    if (event.seq > seq) out.push_back(event);
  }
  return out;
}

namespace {

struct NumberedRecord {
  std::uint64_t number = 0;  // 0 = no record
  std::string path;
};

/// The flightrec-<n>.jsonl with the highest n in `queueDir`.
NumberedRecord newestNumberedRecord(const std::string& queueDir) {
  constexpr std::string_view kPrefix = "flightrec-";
  constexpr std::string_view kSuffix = ".jsonl";
  NumberedRecord newest;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(queueDir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) continue;
    const std::string_view digits = std::string_view(name).substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    std::uint64_t number = 0;
    const auto [end, error] =
        std::from_chars(digits.data(), digits.data() + digits.size(), number);
    if (error != std::errc() || end != digits.data() + digits.size()) {
      continue;
    }
    if (number > newest.number) newest = {number, entry.path().string()};
  }
  return newest;
}

}  // namespace

std::string newestFlightRecord(const std::string& queueDir) {
  return newestNumberedRecord(queueDir).path;
}

std::string dumpFlightRecord(const std::string& queueDir,
                             const EventBus& bus) {
  const std::vector<TelemetryEvent> events = bus.snapshot();
  if (events.empty()) return "";
  std::ostringstream body;
  body << "{\"schema\":" << obs::json::quote(kFlightRecordSchema)
       << ",\"events\":" << events.size()
       << ",\"dropped\":" << bus.dropped() << "}\n";
  for (const TelemetryEvent& event : events) {
    body << renderEvent(event) << "\n";
  }
  fs::create_directories(queueDir);
  const fs::path path =
      fs::path(queueDir) /
      ("flightrec-" +
       std::to_string(newestNumberedRecord(queueDir).number + 1) + ".jsonl");
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw Error("cannot write flight record '" + tmp.string() + "'");
    }
    out << body.str();
  }
  fs::rename(tmp, path);
  return path.string();
}

}  // namespace rebench::telemetry
