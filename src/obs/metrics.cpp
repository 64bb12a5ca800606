#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"

namespace ictm::obs {

const char* MetricClassName(MetricClass cls) {
  return cls == MetricClass::kDeterministic ? "deterministic" : "timing";
}

// ---- Counter ---------------------------------------------------------------

std::uint64_t Counter::value() const {
  return value_.load(std::memory_order_relaxed);
}

void Counter::reset() { value_.store(0, std::memory_order_relaxed); }

// ---- Gauge -----------------------------------------------------------------

void Gauge::set(std::int64_t v) {
  if (!Enabled()) return;
  value_.store(v, std::memory_order_relaxed);
  recordMax(v);
}

void Gauge::recordMax(std::int64_t v) {
  if (!Enabled()) return;
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

std::int64_t Gauge::value() const {
  return value_.load(std::memory_order_relaxed);
}

std::int64_t Gauge::maxValue() const {
  return max_.load(std::memory_order_relaxed);
}

void Gauge::reset() {
  value_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  ICTM_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must be ascending");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::recordSlow(double v) {
  // First bucket whose upper bound admits v; everything above the
  // last bound lands in the overflow bucket.  The bucket index is a
  // pure function of v, so deterministic inputs give deterministic
  // bucket counts regardless of recording order.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) -
      bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Histogram::total() const {
  return total_.load(std::memory_order_relaxed);
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  total_.store(0, std::memory_order_relaxed);
}

// ---- snapshot --------------------------------------------------------------

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

std::string MetricsSnapshot::toJson() const {
  std::string out = "{\n  \"schema\": \"ictm-metrics-v1\",\n";

  out += "  \"counters\": [";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const CounterValue& c = counters[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    AppendJsonString(&out, c.name);
    out += ", \"class\": \"";
    out += MetricClassName(c.cls);
    out += "\", \"value\": " + std::to_string(c.value) + "}";
  }
  out += counters.empty() ? "],\n" : "\n  ],\n";

  out += "  \"gauges\": [";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    const GaugeValue& g = gauges[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    AppendJsonString(&out, g.name);
    out += ", \"class\": \"";
    out += MetricClassName(g.cls);
    out += "\", \"value\": " + std::to_string(g.value) +
           ", \"max\": " + std::to_string(g.max) + "}";
  }
  out += gauges.empty() ? "],\n" : "\n  ],\n";

  out += "  \"histograms\": [";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramValue& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    AppendJsonString(&out, h.name);
    out += ", \"class\": \"";
    out += MetricClassName(h.cls);
    out += "\", \"total\": " + std::to_string(h.total) +
           ", \"buckets\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out += ", ";
      out += "{\"le\": ";
      if (b < h.bounds.size()) {
        AppendJsonDouble(&out, h.bounds[b]);
      } else {
        out += "\"inf\"";
      }
      out += ", \"count\": " + std::to_string(h.counts[b]) + "}";
    }
    out += "]}";
  }
  out += histograms.empty() ? "]\n" : "\n  ]\n";

  out += "}\n";
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsSnapshot::flatten()
    const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters.size() + 2 * gauges.size() + histograms.size());
  for (const CounterValue& c : counters) out.emplace_back(c.name, c.value);
  for (const GaugeValue& g : gauges) {
    out.emplace_back(g.name, static_cast<std::uint64_t>(g.value));
    out.emplace_back(g.name + ".max", static_cast<std::uint64_t>(g.max));
  }
  for (const HistogramValue& h : histograms) {
    out.emplace_back(h.name + ".count", h.total);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- Registry --------------------------------------------------------------

Registry& Registry::Instance() {
  // Process-wide by design: metrics from every subsystem land in one
  // place so `--metrics-out`, the STATS frame and the serve summary
  // all read the same state (ICTM-D004 allowlisted).
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name, MetricClass cls) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, Entry<Counter>{cls, std::make_unique<Counter>()})
             .first;
  }
  return *it->second.metric;
}

Gauge& Registry::gauge(const std::string& name, MetricClass cls) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, Entry<Gauge>{cls, std::make_unique<Gauge>()})
             .first;
  }
  return *it->second.metric;
}

Histogram& Registry::histogram(const std::string& name, MetricClass cls,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, Entry<Histogram>{
                                cls, std::make_unique<Histogram>(
                                         std::move(bounds))})
             .first;
  }
  return *it->second.metric;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  // std::map iterates in name order, so the snapshot (and everything
  // derived from it: JSON, STATS payload) is deterministically
  // ordered.
  snap.counters.reserve(counters_.size());
  for (const auto& [name, entry] : counters_) {
    snap.counters.push_back({name, entry.cls, entry.metric->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, entry] : gauges_) {
    snap.gauges.push_back({name, entry.cls, entry.metric->value(),
                           entry.metric->maxValue()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, entry] : histograms_) {
    snap.histograms.push_back({name, entry.cls, entry.metric->bounds(),
                               entry.metric->counts(),
                               entry.metric->total()});
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : counters_) entry.metric->reset();
  for (auto& [name, entry] : gauges_) entry.metric->reset();
  for (auto& [name, entry] : histograms_) entry.metric->reset();
}

// ---- conveniences ----------------------------------------------------------

Counter& GetCounter(const char* name, MetricClass cls) {
  return Registry::Instance().counter(name, cls);
}

Gauge& GetGauge(const char* name, MetricClass cls) {
  return Registry::Instance().gauge(name, cls);
}

Histogram& GetHistogram(const char* name, MetricClass cls,
                        std::vector<double> bounds) {
  return Registry::Instance().histogram(name, cls, std::move(bounds));
}

bool Enabled() { return Registry::Instance().enabled(); }

void SetEnabled(bool on) { Registry::Instance().setEnabled(on); }

std::vector<double> ExponentialBounds(double lo, double factor,
                                      std::size_t n) {
  std::vector<double> bounds(n);
  double b = lo;
  for (std::size_t i = 0; i < n; ++i) {
    bounds[i] = b;
    b *= factor;
  }
  return bounds;
}

std::vector<double> LatencyBoundsNs() {
  // 1us, 10us, ..., 10s: eight decades covers queue waits through
  // whole-trace I/O.
  return ExponentialBounds(1e3, 10.0, 8);
}

}  // namespace ictm::obs
