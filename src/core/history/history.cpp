#include "core/history/history.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/framework/pipeline.hpp"
#include "core/infer/changepoint_edm.hpp"
#include "core/infer/estimator.hpp"
#include "core/obs/json.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace.hpp"
#include "core/store/object_store.hpp"
#include "core/util/error.hpp"
#include "core/util/strings.hpp"

namespace rebench::history {

FomAggregate FomAggregate::parse(const obs::json::Value& value) {
  FomAggregate aggregate;
  aggregate.test = value.stringOr("test", "");
  aggregate.target = value.stringOr("target", "");
  aggregate.fom = value.stringOr("fom", "");
  aggregate.specHash = value.stringOr("spec", "");
  aggregate.mean = value.numberOr("mean", 0.0);
  aggregate.min = value.numberOr("min", 0.0);
  aggregate.max = value.numberOr("max", 0.0);
  aggregate.ciHalfwidth = value.numberOr("ci", 0.0);
  aggregate.ess = value.numberOr("ess", 0.0);
  aggregate.autocorr = value.numberOr("autocorr", 0.0);
  aggregate.repeats = static_cast<int>(value.numberOr("repeats", 0));
  return aggregate;
}

std::vector<FomAggregate> aggregateFoms(
    std::span<const TestRunResult> results) {
  struct Accumulator {
    FomAggregate aggregate;  // names, min, max and repeats so far
    double sum = 0.0;
    std::vector<double> samples;  // repeat order, for the CI/ESS view
  };
  // Keyed (test, target, fom) so output order is canonical regardless of
  // the (already canonical) result order.
  std::map<std::string, Accumulator> series;
  std::map<std::string, std::string> specHashes;  // "test|target" -> hash
  for (const TestRunResult& result : results) {
    const std::string target = result.system + ":" + result.partition;
    const std::string pair = result.testName + "|" + target;
    if (result.concreteSpec != nullptr) {
      const auto [spec, first] = specHashes.try_emplace(pair);
      if (first) spec->second = result.concreteSpec->dagHash();
    }
    if (result.quarantined || result.foms.empty()) continue;
    for (const auto& [fom, value] : result.foms) {
      Accumulator& acc = series[pair + "|" + fom];
      FomAggregate& aggregate = acc.aggregate;
      if (aggregate.repeats == 0) {
        aggregate.test = result.testName;
        aggregate.target = target;
        aggregate.fom = fom;
        aggregate.min = value;
        aggregate.max = value;
      }
      acc.sum += value;
      aggregate.min = std::min(aggregate.min, value);
      aggregate.max = std::max(aggregate.max, value);
      acc.samples.push_back(value);
      ++aggregate.repeats;
    }
  }
  std::vector<FomAggregate> out;
  out.reserve(series.size());
  for (auto& [key, acc] : series) {
    FomAggregate aggregate = std::move(acc.aggregate);
    const auto spec = specHashes.find(aggregate.test + "|" + aggregate.target);
    if (spec != specHashes.end()) aggregate.specHash = spec->second;
    aggregate.mean = acc.sum / aggregate.repeats;
    const infer::SeriesEstimate est = infer::estimateSeries(acc.samples);
    // A single repeat has no defined interval; record 0 = "unknown"
    // rather than an unserializable infinity.
    aggregate.ciHalfwidth = est.n >= 2 ? est.ciHalfwidth : 0.0;
    aggregate.ess = est.ess;
    aggregate.autocorr = est.autocorr;
    out.push_back(std::move(aggregate));
  }
  return out;
}

std::string serializeSegment(std::span<const HistoryRecord> records,
                             std::string_view prevHash, std::uint64_t seq,
                             std::uint64_t base) {
  std::ostringstream out;
  out << "{\"kind\":\"meta\",\"schema\":" << obs::json::quote(kHistorySchema)
      << ",\"prev\":" << obs::json::quote(prevHash) << ",\"seq\":" << seq
      << ",\"base\":" << base << ",\"records\":" << records.size() << "}\n";
  for (const HistoryRecord& record : records) {
    out << "{\"kind\":\"record\",\"seq\":" << record.seq
        << ",\"test\":" << obs::json::quote(record.test)
        << ",\"target\":" << obs::json::quote(record.target)
        << ",\"fom\":" << obs::json::quote(record.fom)
        << ",\"manifest\":" << obs::json::quote(record.manifestHash)
        << ",\"env\":" << obs::json::quote(record.envFingerprint)
        << ",\"spec\":" << obs::json::quote(record.specHash)
        << ",\"mean\":" << str::fixed(record.mean, 6)
        << ",\"min\":" << str::fixed(record.min, 6)
        << ",\"max\":" << str::fixed(record.max, 6)
        << ",\"ci\":" << str::fixed(record.ciHalfwidth, 6)
        << ",\"ess\":" << str::fixed(record.ess, 3)
        << ",\"repeats\":" << record.repeats
        << ",\"sim_timestamp\":" << str::fixed(record.simTimestamp, 6)
        << "}\n";
  }
  return out.str();
}

std::vector<HistoryRecord> parseSegment(std::string_view bytes,
                                        std::string* prevHash,
                                        std::uint64_t* seq) {
  std::vector<HistoryRecord> records;
  std::istringstream in{std::string(bytes)};
  std::string line;
  bool sawMeta = false;
  while (std::getline(in, line)) {
    if (str::trim(line).empty()) continue;
    const obs::json::Value value = obs::json::parse(line);
    const std::string kind = value.stringOr("kind", "");
    if (kind == "meta") {
      const std::string schema = value.stringOr("schema", "");
      if (schema != kHistorySchema) {
        throw Error("history segment has schema '" + schema +
                    "' (expected '" + std::string(kHistorySchema) + "')");
      }
      if (prevHash != nullptr) *prevHash = value.stringOr("prev", "");
      if (seq != nullptr) {
        *seq = static_cast<std::uint64_t>(value.numberOr("seq", 0));
      }
      sawMeta = true;
    } else if (kind == "record") {
      HistoryRecord record;
      static_cast<FomAggregate&>(record) = FomAggregate::parse(value);
      record.seq = static_cast<std::uint64_t>(value.numberOr("seq", 0));
      record.manifestHash = value.stringOr("manifest", "");
      record.envFingerprint = value.stringOr("env", "");
      record.simTimestamp = value.numberOr("sim_timestamp", 0);
      records.push_back(std::move(record));
    }
  }
  if (!sawMeta) throw Error("history segment is missing its meta line");
  return records;
}

HistoryIndex::HistoryIndex(store::ObjectStore& store) : store_(store) {}

void HistoryIndex::setObservability(obs::Tracer* tracer,
                                    obs::MetricsRegistry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
}

std::string HistoryIndex::appendSegment(
    std::span<const HistoryRecord> records) {
  if (records.empty()) return "";
  std::string prev;
  std::uint64_t seq = 0;
  std::uint64_t base = 0;
  if (const auto head = store_.ref(kHeadRef)) {
    auto bytes = store_.get(*head);
    if (!bytes) {
      throw Error("history head segment '" + *head +
                  "' is missing from the store");
    }
    std::uint64_t headSeq = 0;
    const auto headRecords = parseSegment(*bytes, nullptr, &headSeq);
    prev = *head;
    seq = headSeq + 1;
    base = headRecords.empty() ? 0 : headRecords.back().seq + 1;
  }
  std::vector<HistoryRecord> stamped(records.begin(), records.end());
  for (std::size_t i = 0; i < stamped.size(); ++i) {
    stamped[i].seq = base + i;
  }
  const std::string blob = serializeSegment(stamped, prev, seq, base);
  const std::string hash = store_.put(blob);
  // Pin before publishing the head ref: from the moment the chain can
  // reach this segment, LRU pressure must not be able to evict it.
  store_.pin(hash);
  store_.setRef(kHeadRef, hash);
  if (tracer_ != nullptr) {
    const std::string count = std::to_string(stamped.size());
    for (const HistoryRecord& record : stamped) {
      tracer_->beginSpan("history.append");
      tracer_->setAttr("test", record.test);
      tracer_->setAttr("target", record.target);
      tracer_->setAttr("fom", record.fom);
      tracer_->setAttr("records", count);
      tracer_->endSpan();
    }
  }
  if (metrics_ != nullptr) {
    metrics_->counter("history.append").inc(stamped.size());
  }
  return hash;
}

std::vector<std::vector<HistoryRecord>> HistoryIndex::readSegments() const {
  std::vector<std::vector<HistoryRecord>> segments;  // newest first
  std::string hash = store_.ref(kHeadRef).value_or("");
  while (!hash.empty()) {
    auto bytes = store_.get(hash);
    if (!bytes) {
      throw Error("history chain is broken: segment '" + hash +
                  "' is missing from the store");
    }
    std::string prev;
    segments.push_back(parseSegment(*bytes, &prev));
    hash = prev;
  }
  return segments;
}

std::vector<HistoryRecord> HistoryIndex::readAll() const {
  const std::vector<std::vector<HistoryRecord>> segments = readSegments();
  std::vector<HistoryRecord> records;
  for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
    records.insert(records.end(), it->begin(), it->end());
  }
  return records;
}

std::vector<HistoryRecord> HistoryIndex::query(std::string_view test,
                                               std::string_view target,
                                               std::string_view fom) const {
  std::vector<HistoryRecord> out;
  std::vector<HistoryRecord> all = readAll();
  for (HistoryRecord& record : all) {
    if (!test.empty() && record.test != test) continue;
    if (!target.empty() && record.target != target) continue;
    if (!fom.empty() && record.fom != fom) continue;
    out.push_back(std::move(record));
  }
  if (tracer_ != nullptr) {
    tracer_->beginSpan("history.query");
    tracer_->setAttr("test", test.empty() ? "*" : std::string(test));
    tracer_->setAttr("target", target.empty() ? "*" : std::string(target));
    tracer_->setAttr("fom", fom.empty() ? "*" : std::string(fom));
    tracer_->setAttr("records", std::to_string(out.size()));
    tracer_->endSpan();
  }
  if (metrics_ != nullptr) metrics_->counter("history.query").inc();
  return out;
}

std::size_t HistoryIndex::segmentCount() const {
  return readSegments().size();
}

std::map<std::string, std::vector<HistoryRecord>> groupSeries(
    std::span<const HistoryRecord> records) {
  std::map<std::string, std::vector<HistoryRecord>> series;
  for (const HistoryRecord& record : records) {
    series[record.test + "|" + record.target + "|" + record.fom].push_back(
        record);
  }
  return series;
}

namespace {

std::string renderHistoryText(
    const std::map<std::string, std::vector<HistoryRecord>>& series,
    const RenderOptions& options) {
  std::ostringstream out;
  if (series.empty()) {
    out << "history: no matching records\n";
    return out.str();
  }
  bool first = true;
  for (const auto& [key, records] : series) {
    if (!first) out << "\n";
    first = false;
    const HistoryRecord& head = records.front();
    out << "== " << head.test << " @ " << head.target << " · " << head.fom
        << " (" << records.size() << " record"
        << (records.size() == 1 ? "" : "s") << ") ==\n";
    std::vector<double> means;
    means.reserve(records.size());
    for (const HistoryRecord& record : records) means.push_back(record.mean);
    out << "  trend |" << sparkline(means) << "|\n";
    const auto flags = detectChangepoints(means, options.changepoint);
    out << "  " << std::left << std::setw(6) << "seq" << std::setw(13)
        << "mean" << std::setw(13) << "min" << std::setw(13) << "max"
        << std::setw(8) << "reps" << std::setw(13) << "roll_mean"
        << std::setw(13) << "roll_std" << "flag\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const HistoryRecord& record = records[i];
      const bool flagged =
          std::any_of(flags.begin(), flags.end(),
                      [i](const Changepoint& c) { return c.index == i; });
      out << "  " << std::left << std::setw(6) << record.seq << std::setw(13)
          << obs::formatMetricValue(record.mean) << std::setw(13)
          << obs::formatMetricValue(record.min) << std::setw(13)
          << obs::formatMetricValue(record.max) << std::setw(8)
          << record.repeats << std::setw(13)
          << obs::formatMetricValue(rollingMean(means, i, options.window))
          << std::setw(13)
          << obs::formatMetricValue(rollingStddev(means, i, options.window))
          << (flagged ? "*" : "") << "\n";
    }
    if (flags.empty()) {
      out << "  changepoints: none\n";
    } else {
      for (const Changepoint& flag : flags) {
        out << "  changepoint @ seq " << records[flag.index].seq << ": mean "
            << obs::formatMetricValue(flag.meanBefore) << " -> "
            << obs::formatMetricValue(flag.meanAfter) << " (shift "
            << obs::formatMetricValue(flag.shift) << ")\n";
      }
    }
  }
  return out.str();
}

std::string renderHistoryJson(
    const std::map<std::string, std::vector<HistoryRecord>>& series,
    const RenderOptions& options) {
  std::ostringstream out;
  out << "{\"schema\":" << obs::json::quote(kHistorySchema)
      << ",\"series\":[";
  bool firstSeries = true;
  for (const auto& [key, records] : series) {
    if (!firstSeries) out << ",";
    firstSeries = false;
    const HistoryRecord& head = records.front();
    std::vector<double> means;
    means.reserve(records.size());
    for (const HistoryRecord& record : records) means.push_back(record.mean);
    const auto flags = detectChangepoints(means, options.changepoint);
    out << "{\"test\":" << obs::json::quote(head.test)
        << ",\"target\":" << obs::json::quote(head.target)
        << ",\"fom\":" << obs::json::quote(head.fom) << ",\"records\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
      const HistoryRecord& record = records[i];
      if (i != 0) out << ",";
      const bool flagged =
          std::any_of(flags.begin(), flags.end(),
                      [i](const Changepoint& c) { return c.index == i; });
      out << "{\"seq\":" << record.seq
          << ",\"manifest\":" << obs::json::quote(record.manifestHash)
          << ",\"env\":" << obs::json::quote(record.envFingerprint)
          << ",\"spec\":" << obs::json::quote(record.specHash)
          << ",\"mean\":" << obs::formatMetricValue(record.mean)
          << ",\"min\":" << obs::formatMetricValue(record.min)
          << ",\"max\":" << obs::formatMetricValue(record.max)
          << ",\"ci\":" << obs::formatMetricValue(record.ciHalfwidth)
          << ",\"ess\":" << obs::formatMetricValue(record.ess)
          << ",\"repeats\":" << record.repeats << ",\"sim_timestamp\":"
          << obs::formatMetricValue(record.simTimestamp)
          << ",\"rolling_mean\":"
          << obs::formatMetricValue(rollingMean(means, i, options.window))
          << ",\"rolling_stddev\":"
          << obs::formatMetricValue(rollingStddev(means, i, options.window))
          << ",\"changepoint\":" << (flagged ? "true" : "false") << "}";
    }
    out << "],\"changepoints\":[";
    for (std::size_t i = 0; i < flags.size(); ++i) {
      if (i != 0) out << ",";
      out << "{\"index\":" << flags[i].index
          << ",\"seq\":" << records[flags[i].index].seq << ",\"mean_before\":"
          << obs::formatMetricValue(flags[i].meanBefore) << ",\"mean_after\":"
          << obs::formatMetricValue(flags[i].meanAfter)
          << ",\"shift\":" << obs::formatMetricValue(flags[i].shift) << "}";
    }
    out << "]}";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace

std::string renderHistory(std::span<const HistoryRecord> records,
                          const RenderOptions& options) {
  const auto series = groupSeries(records);
  return options.json ? renderHistoryJson(series, options)
                      : renderHistoryText(series, options);
}

std::vector<GateResult> checkRegression(std::span<const HistoryRecord> records,
                                        const GateOptions& options) {
  std::vector<GateResult> verdicts;
  for (const auto& [key, series] : groupSeries(records)) {
    GateResult verdict;
    verdict.series = key;
    if (series.size() < 2) {
      verdict.insufficient = true;
      verdict.latest = series.empty() ? 0.0 : series.back().mean;
      verdict.justification = "insufficient history (need >= 2 records)";
      verdicts.push_back(std::move(verdict));
      continue;
    }
    const std::size_t window = std::max<std::size_t>(options.window, 1);
    const std::size_t newest = series.size() - 1;
    const std::size_t begin = newest >= window ? newest - window : 0;
    std::vector<double> baselineMeans;
    baselineMeans.reserve(newest - begin);
    for (std::size_t i = begin; i < newest; ++i) {
      baselineMeans.push_back(series[i].mean);
    }
    double sum = 0.0;
    for (double mean : baselineMeans) sum += mean;
    verdict.baseline = sum / static_cast<double>(baselineMeans.size());
    verdict.latest = series[newest].mean;
    verdict.latestCi = series[newest].ciHalfwidth;
    verdict.latestEss = series[newest].ess;
    verdict.delta = verdict.baseline != 0.0
                        ? (verdict.latest - verdict.baseline) / verdict.baseline
                        : 0.0;
    // Higher FOM = better: only a *drop* beyond the threshold can
    // regress (candidate test, the pre-infer behaviour)...
    const bool candidate = verdict.delta < -options.threshold;
    // ...and only when it is also significant: the latest mean must
    // fall below the baseline window's own 95% confidence band.  A
    // single-record baseline has no band — fall back to the candidate
    // test alone, exactly the old semantics.
    const infer::SeriesEstimate baseEst = infer::estimateSeries(baselineMeans);
    if (baseEst.n >= 2) {
      verdict.baselineCi = baseEst.ciHalfwidth;
      verdict.significant =
          verdict.latest < verdict.baseline - verdict.baselineCi;
    } else {
      verdict.significant = candidate;
    }
    verdict.regression = candidate && verdict.significant;

    // EDM changepoint scan over the whole series for justification:
    // the most recent accepted split, if any.
    std::vector<double> means;
    means.reserve(series.size());
    for (const HistoryRecord& record : series) means.push_back(record.mean);
    const auto flags = infer::detectChangepointsEdm(means);
    if (!flags.empty()) {
      verdict.changepoint = true;
      verdict.changepointIndex = flags.back().index;
    }

    std::ostringstream why;
    if (verdict.regression) {
      why << "drop " << str::fixed(-verdict.delta * 100.0, 1)
          << "% exceeds threshold " << str::fixed(options.threshold * 100.0, 1)
          << "% and latest "
          << obs::formatMetricValue(verdict.latest) << " is below baseline-CI "
          << obs::formatMetricValue(verdict.baseline - verdict.baselineCi);
    } else if (candidate) {
      why << "drop " << str::fixed(-verdict.delta * 100.0, 1)
          << "% exceeds threshold but stays within the baseline CI half-width "
          << obs::formatMetricValue(verdict.baselineCi) << " (not significant)";
    } else {
      why << "delta " << str::fixed(verdict.delta * 100.0, 1)
          << "% within threshold "
          << str::fixed(options.threshold * 100.0, 1) << "%";
    }
    if (verdict.changepoint) {
      why << "; EDM changepoint at seq "
          << series[verdict.changepointIndex].seq;
    }
    verdict.justification = why.str();
    verdicts.push_back(std::move(verdict));
  }
  return verdicts;
}

}  // namespace rebench::history
