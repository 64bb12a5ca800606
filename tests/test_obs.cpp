// Tests for the observability layer (src/obs/): the metrics registry
// (counters, gauges, histograms, snapshot/flatten), the tracing
// session, and the determinism contract — deterministic-class metrics
// are identical across thread counts, and neither metrics nor tracing
// ever changes an estimation output byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

#if defined(ICTM_OBS_DISABLED)
#define SKIP_WHEN_COMPILED_OUT() \
  GTEST_SKIP() << "observability layer compiled out (ICTM_OBS=OFF)"
#else
#define SKIP_WHEN_COMPILED_OUT() (void)0
#endif

// ---- primitives ------------------------------------------------------------

TEST_F(ObsTest, CounterAccumulatesAcrossThreads) {
  SKIP_WHEN_COMPILED_OUT();
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
  SKIP_WHEN_COMPILED_OUT();
  obs::Gauge& g = obs::GetGauge("test.gauge", obs::MetricClass::kTiming);
  g.set(10);
  g.recordMax(10);
  g.add(-3);
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
  SKIP_WHEN_COMPILED_OUT();
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
  SKIP_WHEN_COMPILED_OUT();
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
  SKIP_WHEN_COMPILED_OUT();
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
  SKIP_WHEN_COMPILED_OUT();
  obs::GetCounter("test.json", obs::MetricClass::kDeterministic).add(4);
  obs::GetHistogram("test.jh", obs::MetricClass::kTiming, {1.0}).record(2.0);
  const std::string json = obs::Registry::Instance().snapshot().toJson();
  EXPECT_NE(json.find("\"ictm-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json\""), std::string::npos);
  EXPECT_NE(json.find("\"deterministic\""), std::string::npos);
  EXPECT_NE(json.find("\"timing\""), std::string::npos);
  EXPECT_NE(json.find("\"inf\""), std::string::npos);  // overflow bucket
}

#if !defined(ICTM_OBS_DISABLED)
TEST(ObsNow, MonotonicAndNonZero) {
  const std::uint64_t a = obs::Now();
  const std::uint64_t b = obs::Now();
  EXPECT_GT(a, 0u);
  EXPECT_GE(b, a);
}
#endif

// ---- determinism contract --------------------------------------------------

struct StreamFixture {
  topology::Graph graph = topology::MakeRing(6, 2);
  linalg::CsrMatrix routing = topology::BuildRoutingCsr(graph);
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
  SKIP_WHEN_COMPILED_OUT();
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
  SKIP_WHEN_COMPILED_OUT();
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
  SKIP_WHEN_COMPILED_OUT();
  StreamFixture fx;

  obs::Registry::Instance().reset();
  const auto plain =
      stream::EstimateSeriesStreaming(fx.routing, fx.truth,
                                      FixtureOptions(4));
  const auto plainMetrics = DeterministicValues();

  const std::string tracePath = TempPath("obs_run.trace.json");
  std::string error;
  ASSERT_TRUE(obs::tracing::Start(tracePath, &error)) << error;
  obs::Registry::Instance().reset();
  const auto traced =
      stream::EstimateSeriesStreaming(fx.routing, fx.truth,
                                      FixtureOptions(4));
  const auto tracedMetrics = DeterministicValues();
  ASSERT_TRUE(obs::tracing::Stop(&error)) << error;

  ExpectBitIdentical(plain.estimates, traced.estimates);
  ExpectBitIdentical(plain.priors, traced.priors);
  EXPECT_EQ(plainMetrics, tracedMetrics);
  std::remove(tracePath.c_str());
}

// ---- tracing sessions ------------------------------------------------------

TEST_F(ObsTest, TraceFileIsWellFormedChromeTraceJson) {
  SKIP_WHEN_COMPILED_OUT();
  const std::string path = TempPath("obs_wellformed.trace.json");
  std::string error;
  ASSERT_TRUE(obs::tracing::Start(path, &error)) << error;
  EXPECT_TRUE(obs::tracing::Active());
  // A second Start on an active session must fail cleanly.
  EXPECT_FALSE(obs::tracing::Start(path, &error));
  {
    obs::TraceScope outer("outer", "test");
    obs::TraceScope inner("inner", "test");
    obs::tracing::Instant("marker", "test");
  }
  std::thread worker([] { obs::TraceScope s("worker_scope", "test"); });
  worker.join();
  ASSERT_TRUE(obs::tracing::Stop(&error)) << error;
  EXPECT_FALSE(obs::tracing::Active());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker_scope\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);

  // Structural balance; no payload string can contain braces (names
  // are identifiers), so a raw count is a real well-formedness check.
  long braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{';
    braces -= ch == '}';
    brackets += ch == '[';
    brackets -= ch == ']';
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(path.c_str());
}

TEST_F(ObsTest, TraceStartFailsOnUnwritablePath) {
  std::string error;
  EXPECT_FALSE(
      obs::tracing::Start("/nonexistent-dir/trace.json", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::tracing::Active());
}

}  // namespace
}  // namespace ictm
