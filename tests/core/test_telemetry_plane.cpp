// Live telemetry plane tests (ISSUE 10): the bounded event bus and its
// flight-record dump, the deterministic sim resource probe, the
// TelemetryPlane's HTTP routing, and a real StatusServer round-trip on
// an ephemeral port via the in-test httpGet client.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/obs/json.hpp"
#include "core/telemetry/bus.hpp"
#include "core/telemetry/http.hpp"
#include "core/telemetry/plane.hpp"
#include "core/telemetry/probe.hpp"
#include "core/util/error.hpp"

namespace rebench::telemetry {
namespace {

namespace fs = std::filesystem;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---- event bus -----------------------------------------------------------

TEST(EventBus, SequenceNumbersAreMonotoneFromOne) {
  EventBus bus(8);
  EXPECT_EQ(bus.lastSeq(), 0u);
  EXPECT_EQ(bus.publish("service", "", "start"), 1u);
  EXPECT_EQ(bus.publish("journal", "abc", "claim"), 2u);
  EXPECT_EQ(bus.publish("verdict", "abc", "passed"), 3u);
  EXPECT_EQ(bus.lastSeq(), 3u);
  EXPECT_EQ(bus.dropped(), 0u);
}

TEST(EventBus, RingDropsOldestBeyondCapacity) {
  EventBus bus(4);
  for (int i = 0; i < 10; ++i) {
    bus.publish("exec", "", "step-" + std::to_string(i));
  }
  EXPECT_EQ(bus.lastSeq(), 10u);
  EXPECT_EQ(bus.dropped(), 6u);
  const std::vector<TelemetryEvent> ring = bus.snapshot();
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.front().seq, 7u);  // oldest survivor
  EXPECT_EQ(ring.back().seq, 10u);
  EXPECT_EQ(ring.back().stage, "step-9");
}

TEST(EventBus, SinceFiltersBySequence) {
  EventBus bus;
  bus.publish("a", "", "one");
  bus.publish("b", "", "two");
  bus.publish("c", "", "three");
  const std::vector<TelemetryEvent> tail = bus.since(1);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].kind, "b");
  EXPECT_EQ(tail[1].kind, "c");
  EXPECT_TRUE(bus.since(3).empty());
}

TEST(EventBus, WallSecondsAreNonDecreasing) {
  EventBus bus;
  double first = -1.0;
  double second = -1.0;
  bus.publish("a", "", "one", {}, &first);
  bus.publish("a", "", "two", {}, &second);
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
}

TEST(EventBus, RenderEventIsParseableJsonWithSortedAttrs) {
  EventBus bus;
  bus.publish("journal", "deadbeef", "executed",
              {{"runs", "4"}, {"key", "k1"}});
  const std::vector<TelemetryEvent> ring = bus.snapshot();
  ASSERT_EQ(ring.size(), 1u);
  const std::string line = renderEvent(ring[0]);
  const obs::json::Value parsed = obs::json::parse(line);
  ASSERT_TRUE(parsed.isObject());
  EXPECT_EQ(parsed.stringOr("kind", ""), "journal");
  EXPECT_EQ(parsed.stringOr("submission", ""), "deadbeef");
  EXPECT_EQ(parsed.stringOr("stage", ""), "executed");
  EXPECT_EQ(parsed.numberOr("seq", 0), 1.0);
  // AttrMap is a std::map, so attrs land key-sorted in the rendering.
  EXPECT_LT(line.find("\"key\""), line.find("\"runs\""));
}

// ---- flight recorder -----------------------------------------------------

TEST(FlightRecord, DumpWritesMetaLineThenEventsOldestFirst) {
  const std::string dir =
      (fs::temp_directory_path() / "rebench-flightrec-test").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  EventBus bus(4);
  for (int i = 0; i < 6; ++i) {
    bus.publish("exec", "sub", "step-" + std::to_string(i));
  }
  const std::string path = dumpFlightRecord(dir, bus);
  EXPECT_EQ(path, dir + "/flightrec-1.jsonl");
  ASSERT_TRUE(fs::exists(path));

  std::istringstream in(readFile(path));
  std::string metaLine;
  ASSERT_TRUE(std::getline(in, metaLine));
  const obs::json::Value meta = obs::json::parse(metaLine);
  EXPECT_EQ(meta.stringOr("schema", ""), std::string(kFlightRecordSchema));
  EXPECT_EQ(meta.numberOr("events", 0), 4.0);
  EXPECT_EQ(meta.numberOr("dropped", 0), 2.0);

  std::string line;
  std::uint64_t previousSeq = 0;
  int events = 0;
  while (std::getline(in, line)) {
    const obs::json::Value event = obs::json::parse(line);
    const auto seq = static_cast<std::uint64_t>(event.numberOr("seq", 0));
    EXPECT_GT(seq, previousSeq);
    previousSeq = seq;
    ++events;
  }
  EXPECT_EQ(events, 4);
  EXPECT_EQ(previousSeq, 6u);  // last line is the newest event
  fs::remove_all(dir);
}

TEST(FlightRecord, RestartedBusNeverOverwritesAnEarlierRecord) {
  const std::string dir =
      (fs::temp_directory_path() / "rebench-flightrec-restart").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  // A record left by an older daemon, and a stray tmp file, keep their
  // bytes; a restarted daemon's bus repeats the same sequence numbers.
  std::ofstream(dir + "/flightrec-7.jsonl") << "older\n";
  std::ofstream(dir + "/flightrec-9.jsonl.tmp") << "torn\n";
  std::vector<std::string> paths;
  for (int daemon = 0; daemon < 2; ++daemon) {
    EventBus bus;
    bus.publish("journal", "sub", "executed");
    paths.push_back(dumpFlightRecord(dir, bus));
  }
  EXPECT_EQ(paths[0], dir + "/flightrec-8.jsonl");
  EXPECT_EQ(paths[1], dir + "/flightrec-9.jsonl");
  EXPECT_EQ(readFile(dir + "/flightrec-7.jsonl"), "older\n");
  EXPECT_NE(readFile(paths[0]).find("\"seq\":1"), std::string::npos);
  EXPECT_EQ(newestFlightRecord(dir), paths[1]);
  fs::remove_all(dir);
}

TEST(FlightRecord, EmptyBusWritesNothing) {
  const std::string dir =
      (fs::temp_directory_path() / "rebench-flightrec-empty").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  EventBus bus;
  EXPECT_EQ(dumpFlightRecord(dir, bus), "");
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

// ---- resource probe ------------------------------------------------------

TEST(ResourceProbe, ModeNamesRoundTripAndRejectUnknown) {
  ProbeMode mode = ProbeMode::kReal;
  EXPECT_TRUE(probeModeFromName("", &mode));
  EXPECT_EQ(mode, ProbeMode::kOff);
  EXPECT_TRUE(probeModeFromName("sim", &mode));
  EXPECT_EQ(mode, ProbeMode::kSim);
  EXPECT_TRUE(probeModeFromName("real", &mode));
  EXPECT_EQ(mode, ProbeMode::kReal);
  EXPECT_FALSE(probeModeFromName("bogus", &mode));
  EXPECT_EQ(mode, ProbeMode::kReal);  // unchanged on reject
  EXPECT_EQ(probeModeName(ProbeMode::kSim), "sim");
}

TEST(ResourceProbe, OffModeIsInactiveAndSamplesZero) {
  ResourceProbe probe(ProbeMode::kOff);
  EXPECT_FALSE(probe.active());
  const ResourceSample sample = probe.delta(probe.mark(), "any", 1.0);
  EXPECT_EQ(sample.userMs, 0.0);
  EXPECT_EQ(sample.maxRssKb, 0);
}

TEST(ResourceProbe, SimModeIsAPureFunctionOfKeyAndSeconds) {
  ResourceProbe probe(ProbeMode::kSim);
  EXPECT_TRUE(probe.active());
  const std::string key = "StreamTest|cpu|0|1|run";
  const ResourceSample a = probe.delta(probe.mark(), key, 2.5);
  const ResourceSample b = probe.delta(probe.mark(), key, 2.5);
  EXPECT_EQ(a.userMs, b.userMs);
  EXPECT_EQ(a.sysMs, b.sysMs);
  EXPECT_EQ(a.maxRssKb, b.maxRssKb);
  EXPECT_EQ(a.minorFaults, b.minorFaults);
  EXPECT_EQ(a.ioBlocks, b.ioBlocks);
  // Plausible shape: non-negative, RSS present.
  EXPECT_GE(a.userMs, 0.0);
  EXPECT_GT(a.maxRssKb, 0);

  const ResourceSample other =
      probe.delta(probe.mark(), "StreamTest|cpu|1|1|run", 2.5);
  EXPECT_TRUE(other.userMs != a.userMs || other.maxRssKb != a.maxRssKb)
      << "distinct stage keys should produce distinct samples";
}

TEST(ResourceProbe, RealModeObservesThisProcess) {
  ResourceProbe probe(ProbeMode::kReal);
  const ResourceProbe::Mark mark = probe.mark();
  // Burn a little CPU so the delta has something to see.
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
  const ResourceSample sample = probe.delta(mark, "ignored", 0.0);
  EXPECT_GE(sample.userMs, 0.0);
  EXPECT_GE(sample.sysMs, 0.0);
  EXPECT_GT(sample.maxRssKb, 0);  // peak RSS of a live process is never 0
}

// ---- telemetry plane -----------------------------------------------------

TEST(TelemetryPlane, HealthJsonMirrorsStatsAndInflight) {
  TelemetryPlane plane;
  plane.setStat("processed", 3);
  plane.setStat("cached", 1);
  plane.setQueueDepth(2);
  plane.setWatchdogArms(2);
  plane.noteRunCache(true);
  plane.noteRunCache(false);
  plane.noteStage("abc123", "journal", "claim");

  const obs::json::Value health = obs::json::parse(plane.healthJson());
  ASSERT_TRUE(health.isObject());
  EXPECT_EQ(health.stringOr("schema", ""), "rebench.serve_health_live/1");
  EXPECT_EQ(health.numberOr("processed", -1), 3.0);
  EXPECT_EQ(health.numberOr("cached", -1), 1.0);
  EXPECT_EQ(health.numberOr("queue_depth", -1), 2.0);
  EXPECT_EQ(health.numberOr("watchdog_arms", -1), 2.0);
  EXPECT_EQ(health.numberOr("runcache_hits", -1), 1.0);
  EXPECT_EQ(health.numberOr("runcache_misses", -1), 1.0);
  EXPECT_EQ(health.stringOr("inflight_submission", ""), "abc123");
  EXPECT_EQ(health.stringOr("inflight_stage", ""), "claim");
  EXPECT_GE(health.numberOr("seq", -1), 1.0);

  plane.clearInflight();
  const obs::json::Value idle = obs::json::parse(plane.healthJson());
  EXPECT_EQ(idle.stringOr("inflight_submission", "x"), "");
}

TEST(TelemetryPlane, VerdictStreamSupportsSinceCursor) {
  TelemetryPlane plane;
  const std::uint64_t first = plane.noteVerdict("s1", "passed", false, "");
  const std::uint64_t second =
      plane.noteVerdict("s2", "failed:regression", true, "slow");
  EXPECT_GT(second, first);

  std::istringstream all(plane.verdictsJsonl(0));
  std::string line;
  std::vector<obs::json::Value> rows;
  while (std::getline(all, line)) rows.push_back(obs::json::parse(line));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].stringOr("submission", ""), "s1");
  EXPECT_EQ(rows[0].stringOr("verdict", ""), "passed");
  EXPECT_EQ(rows[1].stringOr("verdict", ""), "failed:regression");
  EXPECT_EQ(rows[1].stringOr("detail", ""), "slow");

  const std::string tail = plane.verdictsJsonl(first);
  EXPECT_EQ(tail.find("s1"), std::string::npos);
  EXPECT_NE(tail.find("s2"), std::string::npos);
  EXPECT_TRUE(plane.verdictsJsonl(second).empty());
}

TEST(TelemetryPlane, SubmissionTimelineRecordsStageHistory) {
  TelemetryPlane plane;
  plane.noteStage("abc", "journal", "claim");
  plane.noteStage("abc", "exec", "campaign");
  plane.noteStage("abc", "journal", "executed");
  plane.noteVerdict("abc", "passed", false, "");

  std::string out;
  ASSERT_TRUE(plane.submissionJson("abc", &out));
  const obs::json::Value doc = obs::json::parse(out);
  ASSERT_TRUE(doc.isObject());
  EXPECT_EQ(doc.stringOr("submission", ""), "abc");
  const auto it = doc.object.find("timeline");
  ASSERT_NE(it, doc.object.end());
  ASSERT_TRUE(it->second.isArray());
  ASSERT_GE(it->second.array.size(), 3u);
  EXPECT_EQ(it->second.array[0].stringOr("stage", ""), "claim");

  EXPECT_FALSE(plane.submissionJson("unknown", &out));
}

TEST(TelemetryPlane, MetricsTextIsOpenMetricsShaped) {
  TelemetryPlane plane;
  plane.setStat("processed", 5);
  plane.noteRunCache(true);
  const std::string text = plane.metricsText();
  EXPECT_NE(text.find("# TYPE rebench_service_"), std::string::npos);
  EXPECT_NE(text.find("rebench_service_report_total{sub=\"processed\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rebench_service_runcache_hit_ratio"),
            std::string::npos);
  const std::string tail = "# EOF\n";
  ASSERT_GE(text.size(), tail.size());
  EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
}

TEST(TelemetryPlane, HandleRoutesAndRejects) {
  TelemetryPlane plane;
  plane.noteStage("abc", "journal", "claim");
  plane.noteVerdict("abc", "passed", false, "");

  EXPECT_EQ(plane.handle({"GET", "/health", ""}).status, 200);
  const HttpResponse metrics = plane.handle({"GET", "/metrics", ""});
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.contentType.find("openmetrics"), std::string::npos);

  const HttpResponse verdicts = plane.handle({"GET", "/verdicts", "since=0"});
  EXPECT_EQ(verdicts.status, 200);
  EXPECT_NE(verdicts.body.find("\"passed\""), std::string::npos);
  EXPECT_EQ(plane.handle({"GET", "/verdicts", "since=banana"}).status, 400);

  EXPECT_EQ(plane.handle({"GET", "/submissions/abc", ""}).status, 200);
  EXPECT_EQ(plane.handle({"GET", "/submissions/nope", ""}).status, 404);
  const HttpResponse lost = plane.handle({"GET", "/teapot", ""});
  EXPECT_EQ(lost.status, 404);
  EXPECT_NE(lost.body.find("/health"), std::string::npos)
      << "404 body should advertise the routes";
}

// ---- status server -------------------------------------------------------

TEST(StatusServer, EphemeralPortRoundTripViaHttpGet) {
  TelemetryPlane plane;
  plane.setStat("processed", 7);
  StatusServer server(
      [&plane](const HttpRequest& request) { return plane.handle(request); });
  server.start("127.0.0.1:0");
  ASSERT_TRUE(server.running());
  const std::string address = server.boundAddress();
  ASSERT_NE(address.find("127.0.0.1:"), std::string::npos);
  ASSERT_NE(address, "127.0.0.1:0") << "ephemeral port must be resolved";

  const std::string body = httpGet(address, "/health");
  const obs::json::Value health = obs::json::parse(body);
  EXPECT_EQ(health.numberOr("processed", -1), 7.0);

  EXPECT_THROW(httpGet(address, "/teapot"), Error);  // 404 → throw
  EXPECT_EQ(server.requestCount(), 2u);

  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_THROW(httpGet(address, "/health"), Error);  // socket gone

  // Every request became a serve.endpoint span on the server's tracer.
  const std::string trace = server.tracer().toJsonl();
  EXPECT_NE(trace.find("serve.endpoint"), std::string::npos);
  EXPECT_NE(trace.find("/teapot"), std::string::npos);
}

}  // namespace
}  // namespace rebench::telemetry
