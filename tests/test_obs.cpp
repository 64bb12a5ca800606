// Tests for the observability layer (src/obs/): the metrics registry
// (counters, gauges, histograms, snapshot/flatten), spans and the
// tracing session, and the determinism contract — deterministic-class metrics
// are identical across thread counts, and neither metrics nor tracing
// ever changes an estimation output byte.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/now.hpp"
#include "obs/trace.hpp"
#include "stream/online.hpp"
#include "test_util.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

namespace ictm {
namespace {

using test::ExpectBitIdentical;
using test::RandomSeries;
using test::TempPath;

// The registry is process-global; every test starts from zeroed
// metrics (names stay registered) with recording on.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Instance().reset();
  }
};

// ---- primitives ------------------------------------------------------------

TEST_F(ObsTest, CounterAccumulatesAcrossThreads) {
  obs::Counter& c =
      obs::GetCounter("test.counter", obs::MetricClass::kDeterministic);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  c.add(5);
  EXPECT_EQ(c.value(), 8005u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeTracksLevelAndHighWaterMark) {
  obs::Gauge& g = obs::GetGauge("test.gauge", obs::MetricClass::kTiming);
  g.set(10);
  g.set(7);
  g.recordMax(7);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(g.maxValue(), 10);
  g.recordMax(42);
  EXPECT_EQ(g.maxValue(), 42);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.maxValue(), 0);
}

TEST_F(ObsTest, HistogramBucketsByInclusiveUpperBound) {
  obs::Histogram& h = obs::GetHistogram(
      "test.hist", obs::MetricClass::kTiming, {1.0, 10.0, 100.0});
  h.record(0.5);    // bucket 0
  h.record(1.0);    // bucket 0 (inclusive upper bound)
  h.record(5.0);    // bucket 1
  h.record(100.0);  // bucket 2
  h.record(1e6);    // overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST_F(ObsTest, ExponentialBoundsAreAscendingDecades) {
  const auto b = obs::ExponentialBounds(1.0, 10.0, 3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 10.0);
  EXPECT_DOUBLE_EQ(b[2], 100.0);
  EXPECT_EQ(obs::LatencyBoundsNs().size(), 8u);
  EXPECT_DOUBLE_EQ(obs::LatencyBoundsNs().front(), 1e3);
}

TEST_F(ObsTest, RegistryReturnsStableReferencesAndFirstClassWins) {
  obs::Counter& a =
      obs::GetCounter("test.stable", obs::MetricClass::kDeterministic);
  obs::Counter& b =
      obs::GetCounter("test.stable", obs::MetricClass::kTiming);
  EXPECT_EQ(&a, &b);  // same object; re-registration cannot fork it
  const auto snap = obs::Registry::Instance().snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == "test.stable") {
      EXPECT_EQ(c.cls, obs::MetricClass::kDeterministic);
    }
  }
}

TEST_F(ObsTest, SetEnabledGatesRecording) {
  obs::Counter& c =
      obs::GetCounter("test.gated", obs::MetricClass::kDeterministic);
  obs::SetEnabled(false);
  c.add(7);
  EXPECT_EQ(c.value(), 0u);
  obs::SetEnabled(true);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(ObsTest, SnapshotIsNameSortedAndFlattenCoversEverything) {
  obs::GetCounter("test.z", obs::MetricClass::kDeterministic).add(1);
  obs::GetCounter("test.a", obs::MetricClass::kDeterministic).add(2);
  obs::GetGauge("test.g", obs::MetricClass::kTiming).set(3);
  obs::GetHistogram("test.h", obs::MetricClass::kTiming, {1.0}).record(0.5);

  const auto snap = obs::Registry::Instance().snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }

  const auto flat = snap.flatten();
  for (std::size_t i = 1; i < flat.size(); ++i) {
    EXPECT_LT(flat[i - 1].first, flat[i].first);
  }
  std::map<std::string, std::uint64_t> byName(flat.begin(), flat.end());
  EXPECT_EQ(byName.at("test.z"), 1u);
  EXPECT_EQ(byName.at("test.a"), 2u);
  EXPECT_EQ(byName.at("test.g"), 3u);
  EXPECT_EQ(byName.at("test.g.max"), 3u);
  EXPECT_EQ(byName.at("test.h.count"), 1u);
}

TEST_F(ObsTest, JsonSnapshotCarriesSchemaAndClasses) {
  obs::GetCounter("test.json", obs::MetricClass::kDeterministic).add(4);
  obs::GetHistogram("test.jh", obs::MetricClass::kTiming, {1.0}).record(2.0);
  const std::string json = obs::Registry::Instance().snapshot().toJson();
  EXPECT_NE(json.find("\"ictm-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json\""), std::string::npos);
  EXPECT_NE(json.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(json.find("\"timing\""), std::string::npos);
  EXPECT_NE(json.find("\"inf\""), std::string::npos);  // overflow bucket
}

TEST(ObsNow, MonotonicAndNonZero) {
  const std::uint64_t a = obs::Now();
  const std::uint64_t b = obs::Now();
  EXPECT_GT(a, 0u);
  EXPECT_GE(b, a);
}

// ---- determinism contract --------------------------------------------------

struct StreamFixture {
  topology::Graph graph = topology::MakeRing(6, 2);
  linalg::CscMatrix routing = topology::BuildRouting(graph);
  traffic::TrafficMatrixSeries truth = RandomSeries(6, 24, 99);
};

stream::StreamingOptions FixtureOptions(std::size_t threads) {
  stream::StreamingOptions opts;
  opts.f = 0.25;
  opts.window = 8;
  opts.threads = threads;
  return opts;
}

/// Every deterministic-class value in the registry, keyed so two runs
/// can be compared exactly: counters by name, histograms by per-bucket
/// counts.  Timing-class metrics are excluded by definition.
std::map<std::string, std::uint64_t> DeterministicValues() {
  const obs::MetricsSnapshot snap = obs::Registry::Instance().snapshot();
  std::map<std::string, std::uint64_t> out;
  for (const auto& c : snap.counters) {
    if (c.cls == obs::MetricClass::kDeterministic) out[c.name] = c.value;
  }
  for (const auto& h : snap.histograms) {
    if (h.cls != obs::MetricClass::kDeterministic) continue;
    out[h.name + ".count"] = h.total;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      out[h.name + ".bucket" + std::to_string(i)] = h.counts[i];
    }
  }
  return out;
}

TEST_F(ObsTest, DeterministicMetricsIdenticalAcrossThreadCounts) {
  StreamFixture fx;

  obs::Registry::Instance().reset();
  const auto serial =
      stream::EstimateSeriesStreaming(fx.routing, fx.truth,
                                      FixtureOptions(1));
  const auto serialMetrics = DeterministicValues();
  EXPECT_GT(serialMetrics.at("stream.bins_pushed"), 0u);
  EXPECT_GT(serialMetrics.at("solver.solves.dense"), 0u);

  obs::Registry::Instance().reset();
  const auto threaded =
      stream::EstimateSeriesStreaming(fx.routing, fx.truth,
                                      FixtureOptions(8));
  const auto threadedMetrics = DeterministicValues();

  ExpectBitIdentical(serial.estimates, threaded.estimates);
  EXPECT_EQ(serialMetrics, threadedMetrics);
}

TEST_F(ObsTest, SolverStagesAreTimingCounters) {
  // Every stage of TmBinSolver::Solve reports its wall time, in the
  // timing class, so it stays out of the determinism comparison above.
  StreamFixture fx;
  stream::EstimateSeriesStreaming(fx.routing, fx.truth, FixtureOptions(2));
  std::map<std::string, obs::MetricClass> classes;
  for (const auto& c : obs::Registry::Instance().snapshot().counters) {
    classes.emplace(c.name, c.cls);
  }
  for (const char* stage : {"residual", "gram", "factor", "substitute",
                            "pushback", "ipf"}) {
    const std::string name = std::string("solver.") + stage + "_ns";
    ASSERT_EQ(classes.count(name), 1u) << name;
    EXPECT_EQ(classes.at(name), obs::MetricClass::kTiming) << name;
  }
}

TEST_F(ObsTest, DisablingMetricsDoesNotChangeResults) {
  StreamFixture fx;

  const auto enabled =
      stream::EstimateSeriesStreaming(fx.routing, fx.truth,
                                      FixtureOptions(4));

  obs::SetEnabled(false);
  const auto disabled =
      stream::EstimateSeriesStreaming(fx.routing, fx.truth,
                                      FixtureOptions(4));
  obs::SetEnabled(true);

  ExpectBitIdentical(enabled.estimates, disabled.estimates);
  ExpectBitIdentical(enabled.priors, disabled.priors);
}

TEST_F(ObsTest, TracingChangesNeitherResultsNorDeterministicMetrics) {
  StreamFixture fx;

  obs::Registry::Instance().reset();
  const auto plain =
      stream::EstimateSeriesStreaming(fx.routing, fx.truth,
                                      FixtureOptions(4));
  const auto plainMetrics = DeterministicValues();

  const std::string tracePath = TempPath("obs_run.trace.json");
  obs::tracing::Start(tracePath);
  obs::Registry::Instance().reset();
  const auto traced =
      stream::EstimateSeriesStreaming(fx.routing, fx.truth,
                                      FixtureOptions(4));
  const auto tracedMetrics = DeterministicValues();
  obs::tracing::Stop();

  ExpectBitIdentical(plain.estimates, traced.estimates);
  ExpectBitIdentical(plain.priors, traced.priors);
  EXPECT_EQ(plainMetrics, tracedMetrics);
  std::remove(tracePath.c_str());
}

// ---- spans and tracing sessions -------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Structural balance of a trace file; no payload string can contain
// braces or brackets (names are identifiers), so a raw count is a real
// well-formedness check.
void ExpectBalanced(const std::string& json) {
  long braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{';
    braces -= ch == '}';
    brackets += ch == '[';
    brackets -= ch == ']';
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// Occurrences of `needle` in `text`.
std::size_t CountOf(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

bool HasEvent(const std::string& json, const std::string& name) {
  return json.find("\"name\":\"" + name + "\"") != std::string::npos;
}

TEST_F(ObsTest, SpanAddsToItsMetricsOnlyWhileRecording) {
  obs::Counter& ns =
      obs::GetCounter("test.span_ns", obs::MetricClass::kTiming);
  obs::Histogram& dist = obs::GetHistogram(
      "test.span_dist", obs::MetricClass::kTiming, obs::LatencyBoundsNs());
  {
    obs::Span span("recorded", "test", &ns, &dist);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t recorded = ns.value();
  EXPECT_GE(recorded, 1000000u);  // at least the 1 ms slept
  EXPECT_EQ(dist.total(), 1u);

  obs::SetEnabled(false);
  {
    obs::Span span("unrecorded", "test", &ns, &dist);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::SetEnabled(true);
  EXPECT_EQ(ns.value(), recorded);
  EXPECT_EQ(dist.total(), 1u);
}

TEST_F(ObsTest, SpansNestAndAppendEventsOnlyWhileTracing) {
  obs::Counter& outerNs =
      obs::GetCounter("test.span_outer_ns", obs::MetricClass::kTiming);
  obs::Counter& innerNs =
      obs::GetCounter("test.span_inner_ns", obs::MetricClass::kTiming);
  {
    obs::Span untraced("before_session", "test");
  }
  const std::string path = TempPath("obs_spans.trace.json");
  obs::tracing::Start(path);
  obs::SetEnabled(false);  // events do not depend on metrics
  {
    obs::Span outer("outer", "test", &outerNs);
    obs::Span inner("inner", "test", &innerNs);
  }
  obs::SetEnabled(true);
  {
    obs::Span outer("outer_recorded", "test", &outerNs);
    obs::Span inner("inner_recorded", "test", &innerNs);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::tracing::Stop();
  {
    obs::Span untraced("after_session", "test");
  }

  // The enclosing span took at least as long as the one it encloses.
  EXPECT_GE(innerNs.value(), 1000000u);
  EXPECT_GE(outerNs.value(), innerNs.value());
  const std::string json = ReadFile(path);
  for (const char* name :
       {"outer", "inner", "outer_recorded", "inner_recorded"}) {
    EXPECT_TRUE(HasEvent(json, name)) << name;
  }
  EXPECT_FALSE(HasEvent(json, "before_session"));
  EXPECT_FALSE(HasEvent(json, "after_session"));
  std::remove(path.c_str());
}

TEST_F(ObsTest, SpanRecordsNothingWhenMetricsAndTracingAreOff) {
  obs::Counter& ns =
      obs::GetCounter("test.span_off_ns", obs::MetricClass::kTiming);
  obs::Histogram& dist = obs::GetHistogram(
      "test.span_off_dist", obs::MetricClass::kTiming, {1.0});
  obs::SetEnabled(false);
  {
    obs::Span span("off", "test", &ns, &dist);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::SetEnabled(true);
  EXPECT_EQ(ns.value(), 0u);
  EXPECT_EQ(dist.total(), 0u);

  // Nor was an event buffered for the next session.
  const std::string path = TempPath("obs_off.trace.json");
  obs::tracing::Start(path);
  obs::tracing::Stop();
  EXPECT_FALSE(HasEvent(ReadFile(path), "off"));
  std::remove(path.c_str());
}

TEST_F(ObsTest, TraceFileIsWellFormedChromeTraceJson) {
  const std::string path = TempPath("obs_wellformed.trace.json");
  obs::tracing::Start(path);
  EXPECT_TRUE(obs::tracing::Active());
  // A second Start on an active session must fail cleanly.
  EXPECT_THROW(obs::tracing::Start(path), Error);
  {
    obs::Span outer("outer", "test");
    obs::Span inner("inner", "test");
  }
  std::thread worker([] { obs::Span s("worker_scope", "test"); });
  worker.join();
  obs::tracing::Stop();
  EXPECT_FALSE(obs::tracing::Active());

  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_TRUE(HasEvent(json, "outer"));
  EXPECT_TRUE(HasEvent(json, "inner"));
  EXPECT_TRUE(HasEvent(json, "worker_scope"));
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  ExpectBalanced(json);
  std::remove(path.c_str());
}

TEST_F(ObsTest, LongSessionsWriteFullBuffersAndKeepEverySpan) {
  // A thread writes its buffer to the file each time it fills (4096
  // events), so a session's memory stays bounded; the file must still
  // hold every span exactly once and stay valid trace JSON.
  constexpr std::size_t kThreads = 4, kSpans = 3 * 4096 + 1;
  const std::string path = TempPath("obs_long.trace.json");
  obs::tracing::Start(path);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kSpans; ++i) {
        obs::Span span("long_session", "test");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every full buffer is already in the file (bar the stream's own
  // buffer): at least 60 bytes for each of the 3 · 4096 events a
  // thread wrote before Stop().
  EXPECT_GT(std::filesystem::file_size(path), kThreads * 3 * 4096 * 60);
  obs::tracing::Stop();

  // Every span once, one event object per span, and a "}," between
  // each pair of events whichever flush wrote them (tools/check_trace.py
  // parses a CLI trace of several flushes in obs_integration).
  const std::string json = ReadFile(path);
  EXPECT_EQ(CountOf(json, "\"name\":\"long_session\""), kThreads * kSpans);
  EXPECT_EQ(CountOf(json, "{\"name\":"), kThreads * kSpans);
  EXPECT_EQ(CountOf(json, "},"), kThreads * kSpans - 1);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  ExpectBalanced(json);
  std::remove(path.c_str());
}

TEST_F(ObsTest, SpanEndingInALaterSessionIsDropped) {
  // A scope that began in one session and ends in the next belongs to
  // neither file: its start precedes the second session's time origin.
  const std::string first = TempPath("obs_first.trace.json");
  const std::string second = TempPath("obs_second.trace.json");
  obs::tracing::Start(first);
  auto straggler = std::make_unique<obs::Span>("straggler", "test");
  obs::tracing::Stop();
  obs::tracing::Start(second);
  straggler.reset();
  { obs::Span kept("kept", "test"); }
  obs::tracing::Stop();
  EXPECT_FALSE(HasEvent(ReadFile(first), "straggler"));
  const std::string json = ReadFile(second);
  EXPECT_FALSE(HasEvent(json, "straggler"));
  EXPECT_TRUE(HasEvent(json, "kept"));
  ExpectBalanced(json);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST_F(ObsTest, TraceStartFailsOnUnwritablePath) {
  EXPECT_THROW(obs::tracing::Start("/nonexistent-dir/trace.json"), Error);
  EXPECT_FALSE(obs::tracing::Active());
}

// The path holds no pid: a death test's child may be a re-executed
// process with a pid of its own.
TEST(ObsTraceDeathTest, UnstoppedSessionLeavesNoFile) {
  const std::string path =
      ::testing::TempDir() + "/ictm-unstopped-session.trace.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        obs::tracing::Start(path);
        std::fprintf(stderr, "session file %s\n",
                     std::filesystem::exists(path) ? "open" : "missing");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "session file open");
  EXPECT_FALSE(std::filesystem::exists(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ictm
