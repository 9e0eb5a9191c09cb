// In-process telemetry event bus (rebench::telemetry).
//
// The live spine of the serve daemon's observability plane: every
// interesting moment — a journal checkpoint, a RunCache hit, a watchdog
// fire, a verdict — is published as a sequence-numbered TelemetryEvent
// into a bounded multi-producer ring.  The ring is deliberately small
// and lossy (old events fall off the back): it is a *flight recorder*,
// not a log.  Consumers are the HTTP status endpoint (live snapshots),
// `rebench status` (TTY view) and the crash path, which dumps the ring
// to QUEUE/flightrec-<n>.jsonl so a post-mortem can see the daemon's
// last N moves next to the journal's claimed state.
//
// Determinism contract: nothing here feeds byte-deterministic artifacts.
// Events carry wall-clock offsets and land only in flightrec/endpoint
// files, never in perflogs, traces, manifests or verdicts — publishing
// is therefore always safe, at any --jobs width, endpoint on or off.
//
// Concurrency: sequence numbers come from one atomic counter; the ring
// itself is guarded by a mutex held only for the O(1) push/copy — the
// publish path never blocks on I/O or allocation beyond the event's own
// strings.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "core/obs/trace.hpp"

namespace rebench::telemetry {

inline constexpr std::string_view kFlightRecordSchema =
    "rebench.flightrec/1";

/// One bus event.  `kind` buckets the producer ("journal", "runcache",
/// "verdict", "watchdog", "exec", "service", "endpoint"); `stage` names
/// the step inside it; attrs carry the rest.
struct TelemetryEvent {
  std::uint64_t seq = 0;
  double wallSeconds = 0.0;  // seconds since the bus was created
  std::string kind;
  std::string submission;  // "" when not submission-scoped
  std::string stage;
  obs::AttrMap attrs;
};

/// One-line JSON rendering (deterministic key order; attrs sorted by
/// the AttrMap). Parsed back by `rebench status` for the TTY view.
std::string renderEvent(const TelemetryEvent& event);

class EventBus {
 public:
  /// `capacity` bounds the ring; older events are dropped.
  explicit EventBus(std::size_t capacity = 256);

  /// Publishes an event; returns its sequence number.  Thread-safe.
  /// `wallSecondsOut`, when non-null, receives the event's wall offset.
  std::uint64_t publish(std::string kind, std::string submission,
                        std::string stage, obs::AttrMap attrs = {},
                        double* wallSecondsOut = nullptr);

  /// Highest sequence number handed out so far (0 = none).
  std::uint64_t lastSeq() const;
  /// Events dropped off the back of the ring.
  std::uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }

  /// Copies the ring contents, oldest first.
  std::vector<TelemetryEvent> snapshot() const;
  /// Ring events with seq > `seq`, oldest first.
  std::vector<TelemetryEvent> since(std::uint64_t seq) const;

 private:
  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::atomic<std::uint64_t> nextSeq_{1};
  std::atomic<std::uint64_t> dropped_{0};
  std::deque<TelemetryEvent> ring_;
};

/// Dumps the ring to QUEUE/flightrec-<n>.jsonl (schema meta line, then
/// one event per line, oldest first) via tmp + rename so readers never
/// observe a torn record.  `n` is one past the highest record number
/// already in QUEUE, so a restarted daemon, whose bus sequence starts
/// again at 1, never overwrites an earlier record.  Returns the path
/// written ("" when the ring is empty — no flight record is better than
/// an empty one).
std::string dumpFlightRecord(const std::string& queueDir,
                             const EventBus& bus);

/// The highest-numbered (newest) flight record in QUEUE, "" when none.
std::string newestFlightRecord(const std::string& queueDir);

}  // namespace rebench::telemetry
