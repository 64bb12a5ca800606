// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms with lock-free accumulation and a deterministic merge.
//
// Design constraints (docs/ARCHITECTURE.md, "Observability"):
//
//  * Strictly off the estimation path.  Metrics only ever read
//    obs::Now() and add unsigned integers; they never touch the
//    floating-point inputs or outputs of a solve, so estimates are
//    bit-identical with instrumentation enabled or disabled
//    (SetEnabled(false), the one off switch).
//
//  * Deterministic merge order.  All mergeable state is integral
//    (u64 event counts, u64 nanosecond totals, u64 bucket counts), so
//    accumulation commutes: the total cannot depend on which thread
//    added first or on join order.  There are no floating-point
//    accumulators anywhere in the registry.
//
//  * Two metric classes.  kDeterministic metrics (bins processed,
//    normal-equation solves, cache hits) are pure functions of the
//    workload and must be identical across thread counts — tests
//    assert them exactly.  kTiming metrics (queue waits, solve
//    nanoseconds) are scheduling-dependent by nature and are never
//    asserted exactly.
//
// Hot-path cost: the enable check (obs::Enabled(), one call making one
// relaxed load) plus one relaxed fetch_add on the metric's own atomic.
// Registration (name lookup) takes a mutex, so callers cache the
// returned reference:
//
//   static obs::Counter& bins =
//       obs::GetCounter("stream.bins_pushed", obs::MetricClass::kDeterministic);
//   bins.add();
//
// Timings go through obs::Span (obs/trace.hpp), which adds a scope's
// nanoseconds to a timing counter or histogram and traces it too.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ictm::obs {

/// Whether a metric's value is a pure function of the workload
/// (asserted exactly by tests) or depends on scheduling/wall time.
enum class MetricClass {
  kDeterministic,
  kTiming,
};

/// "deterministic" / "timing".
const char* MetricClassName(MetricClass cls);

/// Process-wide enable toggle for all metric recording (tracing has
/// its own session lifecycle).  Defaults to enabled.
bool Enabled();
void SetEnabled(bool on);

/// Monotonically increasing event count: one relaxed atomic on its
/// own cache line, so two hot counters never false-share.  Integer
/// addition commutes, so the total is independent of which thread
/// added first.
class alignas(64) Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (Enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const;
  void reset();

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins level plus a monotonic high-water mark.
class Gauge {
 public:
  void set(std::int64_t v);
  /// Raises the high-water mark to v if v is larger.
  void recordMax(std::int64_t v);

  std::int64_t value() const;
  std::int64_t maxValue() const;
  void reset();

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper
/// bounds; one overflow bucket catches everything above the last
/// bound.  Only u64 bucket/event counts are accumulated (no sums, no
/// floating-point state), so merged values are order-independent.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double v) {
    if (Enabled()) recordSlow(v);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// counts()[i] pairs with bounds()[i]; the final entry is the
  /// overflow bucket.
  std::vector<std::uint64_t> counts() const;
  std::uint64_t total() const;
  void reset();

 private:
  void recordSlow(double v);

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> total_{0};
};

/// Point-in-time copy of one counter.
struct CounterValue {
  std::string name;
  MetricClass cls = MetricClass::kDeterministic;
  std::uint64_t value = 0;
};

/// Point-in-time copy of one gauge.
struct GaugeValue {
  std::string name;
  MetricClass cls = MetricClass::kDeterministic;
  std::int64_t value = 0;
  std::int64_t max = 0;
};

/// Point-in-time copy of one histogram.
struct HistogramValue {
  std::string name;
  MetricClass cls = MetricClass::kTiming;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow last)
  std::uint64_t total = 0;
};

/// Deterministically ordered (name-sorted) snapshot of the registry.
struct MetricsSnapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// ictm-metrics-v1 JSON document (the `--metrics-out` payload).
  std::string toJson() const;

  /// Flat name -> value view for the wire: counters, then gauges
  /// (value and "<name>.max"), then histograms as "<name>.count";
  /// sorted by name.  This is the STATS frame payload source.
  std::vector<std::pair<std::string, std::uint64_t>> flatten() const;
};

/// The process-wide registry.  Metric objects are created on first
/// lookup and live for the life of the process; returned references
/// stay valid forever, which is what makes the cached-static caller
/// pattern safe.
class Registry {
 public:
  static Registry& Instance();

  /// Looks up or creates.  A name re-registered with a different
  /// class keeps its original class (first registration wins).
  Counter& counter(const std::string& name, MetricClass cls);
  Gauge& gauge(const std::string& name, MetricClass cls);
  /// `bounds` applies only on first registration.
  Histogram& histogram(const std::string& name, MetricClass cls,
                       std::vector<double> bounds);

  MetricsSnapshot snapshot() const;

  /// Zeroes every registered metric (names stay registered).  Tests
  /// call this between runs; concurrent recording during a reset is
  /// not part of the contract.
  void reset();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void setEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

 private:
  Registry() = default;

  template <typename T>
  struct Entry {
    MetricClass cls;
    std::unique_ptr<T> metric;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
  std::atomic<bool> enabled_{true};
};

/// Registry::Instance() conveniences — the usual call sites.
Counter& GetCounter(const char* name, MetricClass cls);
Gauge& GetGauge(const char* name, MetricClass cls);
Histogram& GetHistogram(const char* name, MetricClass cls,
                        std::vector<double> bounds);

/// n ascending bounds: lo, lo*factor, lo*factor^2, ...
std::vector<double> ExponentialBounds(double lo, double factor,
                                      std::size_t n);

/// Standard nanosecond-latency bounds: 1us .. 10s, decades.
std::vector<double> LatencyBoundsNs();

}  // namespace ictm::obs
