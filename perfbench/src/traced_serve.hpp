// The traced replica of service::Service::run.
//
// Service::run keeps its per-submission steps private, so the benchmark
// cannot put spans inside it without changing the program.  Instead this
// replica drives the same public layer functions in the same order as
// Service::run does for a `once` drain with default options (no
// listener, no deadlines, no crash hook), and records a span around each
// call.  The workloads check that it files the same verdict and journal
// bytes as the real Service::run on an identical copy of the inputs; if
// Service::run changes and the replica falls behind, that check fails
// the traced run instead of letting it measure different work.
#pragma once

#include <cstdint>
#include <string>

#include "core/service/service.hpp"
#include "harness.hpp"

namespace perfbench {

/// Layer counts the replica takes while it runs (the spans hold times).
struct ServeTally {
  rebench::service::ServeReport report;
  std::uint64_t queueScans = 0;
  std::uint64_t queueFilesRead = 0;  // submission files read by scans
  std::uint64_t runCacheLookups = 0;
  std::uint64_t runCacheHits = 0;
  std::uint64_t runs = 0;   // pipeline runs of executed campaigns
  std::uint64_t gates = 0;  // gateCampaign calls
  /// History records appended by this drain before each gate, summed.
  /// Reading the store's history up front would touch its blobs and so
  /// change the store, so records from earlier drains are not counted;
  /// the drains that gate here (serve_cold) start from an empty store.
  std::uint64_t gateRecords = 0;
  std::uint64_t historyRecords = 0;  // appended by this drain so far
};

/// Drains `options.queueDir` once, like Service::run.  Throws when the
/// queue holds a state the replica does not cover (a crash-resumed
/// journal, or options other than a plain `once` drain).
ServeTally tracedServe(const rebench::SystemRegistry& systems,
                       const rebench::PackageRepository& repo,
                       const rebench::service::ServeOptions& options,
                       const rebench::service::TestResolver& resolver,
                       SpanRecorder& spans);

}  // namespace perfbench
