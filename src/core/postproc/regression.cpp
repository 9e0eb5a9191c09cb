#include "core/postproc/regression.hpp"

#include <algorithm>
#include <cmath>

#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench {

std::string SeriesKey::toString() const {
  return system + ":" + partition + "/" + testName + "/" + fomName;
}

void PerfHistory::add(const PerfLogEntry& entry) {
  if (entry.result == "error") return;  // failed runs carry no FOM
  SeriesKey key{entry.system, entry.partition, entry.testName,
                entry.fomName};
  series_[key].push_back(
      HistoryPoint{entry.timestamp, entry.value, entry.binaryId});
}

void PerfHistory::addAll(std::span<const PerfLogEntry> entries) {
  for (const PerfLogEntry& entry : entries) add(entry);
}

std::vector<SeriesKey> PerfHistory::keys() const {
  std::vector<SeriesKey> out;
  out.reserve(series_.size());
  for (const auto& [key, points] : series_) out.push_back(key);
  return out;
}

bool PerfHistory::has(const SeriesKey& key) const {
  return series_.contains(key);
}

const std::vector<HistoryPoint>& PerfHistory::series(
    const SeriesKey& key) const {
  auto it = series_.find(key);
  if (it == series_.end()) {
    throw NotFoundError("no history for series " + key.toString());
  }
  return it->second;
}

std::vector<RegressionEvent> PerfHistory::detect(
    const DetectorOptions& options) const {
  REBENCH_REQUIRE(options.window >= 2 && options.minHistory >= 2);
  std::vector<RegressionEvent> events;
  for (const auto& [key, points] : series_) {
    for (std::size_t i = options.minHistory; i < points.size(); ++i) {
      // Rolling stats over the window strictly before point i.
      const std::size_t begin =
          i > options.window ? i - options.window : 0;
      double sum = 0.0, sumSq = 0.0;
      const double count = static_cast<double>(i - begin);
      for (std::size_t j = begin; j < i; ++j) {
        sum += points[j].value;
        sumSq += points[j].value * points[j].value;
      }
      const double mean = sum / count;
      const double variance =
          std::max(0.0, sumSq / count - mean * mean);
      const double band =
          std::max(options.sigmas * std::sqrt(variance),
                   options.minBandFraction * std::abs(mean));

      const double value = points[i].value;
      RegressionKind kind = RegressionKind::kNone;
      if (value < mean - band) kind = RegressionKind::kDropBelowBand;
      if (value > mean + band) kind = RegressionKind::kRiseAboveBand;
      if (kind == RegressionKind::kNone) continue;

      RegressionEvent event;
      event.key = key;
      event.pointIndex = i;
      event.point = points[i];
      event.kind = kind;
      event.expected = mean;
      event.deviation = mean != 0.0 ? (value - mean) / mean : 0.0;
      // The index disambiguates the timestamp: each campaign appended to a
      // perflog restarts its logical stamps at T0.
      event.detail = key.toString() + " #" + std::to_string(i) + " @" +
                     points[i].timestamp + ": " +
                     str::fixed(value, 2) + " vs rolling " +
                     str::fixed(mean, 2) + " +/- " + str::fixed(band, 2);
      events.push_back(std::move(event));
    }
  }
  return events;
}

std::optional<RegressionEvent> PerfHistory::checkAgainstReference(
    const SeriesKey& key, double reference, double lowerFrac,
    double upperFrac) const {
  const auto& points = series(key);
  REBENCH_REQUIRE(!points.empty());
  const HistoryPoint& latest = points.back();
  const double lo = reference * (1.0 + lowerFrac);
  const double hi = reference * (1.0 + upperFrac);
  if (latest.value >= lo && latest.value <= hi) return std::nullopt;

  RegressionEvent event;
  event.key = key;
  event.pointIndex = points.size() - 1;
  event.point = latest;
  event.kind = latest.value < lo ? RegressionKind::kDropBelowBand
                                 : RegressionKind::kRiseAboveBand;
  event.expected = reference;
  event.deviation = (latest.value - reference) / reference;
  event.detail = key.toString() + ": " + str::fixed(latest.value, 2) +
                 " outside reference [" + str::fixed(lo, 2) + ", " +
                 str::fixed(hi, 2) + "]";
  return event;
}

std::string renderHistoryPlot(const std::vector<HistoryPoint>& points,
                              std::span<const RegressionEvent> events,
                              const std::string& title, int width,
                              int height) {
  std::string out = title + "\n";
  if (points.size() < 2) return out + "(insufficient history)\n";
  double lo = points[0].value, hi = points[0].value;
  for (const HistoryPoint& p : points) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  if (hi <= lo) hi = lo + 1.0;

  std::vector<std::string> grid(height, std::string(width, ' '));
  auto column = [&](std::size_t i) {
    return static_cast<int>(i * (width - 1) / (points.size() - 1));
  };
  for (std::size_t i = 0; i < points.size(); ++i) {
    const int row = static_cast<int>(
        std::round((points[i].value - lo) / (hi - lo) * (height - 1)));
    grid[height - 1 - row][column(i)] = '*';
  }
  for (const RegressionEvent& event : events) {
    if (event.pointIndex >= points.size()) continue;
    const int row = static_cast<int>(std::round(
        (points[event.pointIndex].value - lo) / (hi - lo) * (height - 1)));
    grid[height - 1 - row][column(event.pointIndex)] = '!';
  }
  out += str::fixed(hi, 2) + "\n";
  for (const std::string& line : grid) out += "|" + line + "\n";
  out += str::fixed(lo, 2) + " (oldest -> newest; '!' = flagged)\n";
  return out;
}

}  // namespace rebench
