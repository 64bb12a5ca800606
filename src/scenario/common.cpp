#include "scenario/common.hpp"

#include <algorithm>
#include <cmath>

#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "obs/now.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"

namespace ictm::scenario {

bool BitIdentical(const traffic::TrafficMatrixSeries& a,
                  const traffic::TrafficMatrixSeries& b) {
  const std::size_t n = a.nodeCount();
  if (b.nodeCount() != n || b.binCount() != a.binCount()) return false;
  for (std::size_t t = 0; t < a.binCount(); ++t) {
    const double* pa = a.binData(t);
    const double* pb = b.binData(t);
    for (std::size_t k = 0; k < n * n; ++k) {
      if (pa[k] != pb[k]) return false;
    }
  }
  return true;
}

dataset::DatasetConfig ScenarioDatasetConfig(std::uint64_t seed) {
  dataset::DatasetConfig cfg;
  cfg.seed = seed;
  cfg.peakActivityBytes = 2e8;  // reduced for scenario runtime
  return cfg;
}

dataset::Dataset MakeScenarioDataset(const ScenarioContext& ctx,
                                     bool totem,
                                     std::uint64_t canonicalSeed,
                                     std::size_t weeks) {
  dataset::DatasetConfig cfg = ScenarioDatasetConfig(ctx.seed(canonicalSeed));
  cfg.weeks = weeks;
  if (ctx.tiny) {
    // 6 nodes, 42 bins per week (6 per day) — the same generative
    // machinery at test scale.
    return dataset::MakeSmallWeeklyDataset(6, 42, 300.0, cfg);
  }
  return totem ? dataset::MakeTotemLike(cfg) : dataset::MakeGeantLike(cfg);
}

WeeklyFitResult FitWeekly(const ScenarioContext& ctx, bool totem,
                          std::size_t weeks,
                          std::uint64_t canonicalSeed) {
  WeeklyFitResult out{
      MakeScenarioDataset(ctx, totem, canonicalSeed, weeks), {}};
  const std::size_t binsPerWeek = out.data.binsPerWeek;
  out.fits.reserve(weeks);
  for (std::size_t w = 0; w < weeks; ++w) {
    const auto week = out.data.measured.slice(w * binsPerWeek, binsPerWeek);
    out.fits.push_back(core::FitStableFP(week));
  }
  return out;
}

const std::vector<TopoSweepEntry>& DefaultTopoSweep() {
  // Bin counts shrink as n² grows so a full sweep stays fast; the
  // 22-node entry gets 96 bins so its ms/bin timings (the topo_scale
  // notes, bench_estimation_scale --topo-sweep) sit well above timer
  // noise.  The counts shape topo_scale.json, so changing one changes
  // that document.
  static const std::vector<TopoSweepEntry> sweep = {
      {"hierarchy:22", 96},
      {"hierarchy:50", 16},
      {"hierarchy:100", 8},
      {"hierarchy:200", 6}};
  return sweep;
}

traffic::TrafficMatrixSeries DiurnalTraffic(std::size_t nodes,
                                            std::size_t bins,
                                            std::uint64_t seed) {
  stats::Rng rng(seed);
  traffic::TrafficMatrixSeries truth(nodes, bins, 300.0);
  for (std::size_t t = 0; t < bins; ++t) {
    const double diurnal =
        1.0 + 0.5 * std::sin(2.0 * M_PI * double(t) / 288.0);
    for (std::size_t k = 0; k < nodes * nodes; ++k) {
      truth.binData(t)[k] = diurnal * rng.uniform(1e6, 1e7);
    }
  }
  return truth;
}

TopoSweepRun RunTopoSweepEntry(const TopoSweepEntry& entry,
                               std::uint64_t topologySeed,
                               std::uint64_t trafficSeed,
                               std::size_t baselineThreads,
                               std::size_t fanoutThreads) {
  const topology::Graph g =
      topology::MakeTopology(entry.spec, topologySeed);
  const std::size_t n = g.nodeCount();
  const linalg::CscMatrix routing = topology::BuildRouting(g);

  const traffic::TrafficMatrixSeries truth =
      DiurnalTraffic(n, entry.bins, trafficSeed);
  const traffic::TrafficMatrixSeries priors =
      core::GravityPredictSeries(truth);

  // Compress the system once, outside the timed runs, so they measure
  // steady-state per-bin throughput — the regime a production
  // deployment estimating week-long series lives in.
  core::EstimationOptions options;
  const core::AugmentedTmSystem system(routing, n,
                                       options.useMarginalConstraints);

  options.threads = baselineThreads;
  std::uint64_t t0 = obs::Now();
  const auto estBase =
      core::EstimateSeries(system, routing, truth, priors, options);
  const double secBase = obs::ElapsedSeconds(t0);

  options.threads = fanoutThreads;
  t0 = obs::Now();
  const auto estFan =
      core::EstimateSeries(system, routing, truth, priors, options);
  const double secFan = obs::ElapsedSeconds(t0);

  TopoSweepRun run;
  run.nodes = n;
  run.links = g.linkCount();
  run.routingRows = routing.rows();
  run.routingNnz = routing.nonZeros();
  run.routingDensityPct = 100.0 * double(routing.nonZeros()) /
                          double(routing.rows() * routing.cols());
  run.secBaseline = secBase;
  run.secFanout = secFan;
  run.bitIdentical = BitIdentical(estBase, estFan);
  run.errEst = core::RelL2TemporalSeries(truth, estBase);
  run.errPrior = core::RelL2TemporalSeries(truth, priors);
  return run;
}

json::Value SummaryJson(const std::vector<double>& xs) {
  const stats::Summary s = stats::Summarize(xs);
  json::Object o;
  o.set("mean", s.mean);
  o.set("p10", stats::Quantile(xs, 0.1));
  o.set("p50", stats::Quantile(xs, 0.5));
  o.set("p90", stats::Quantile(xs, 0.9));
  o.set("min", s.min);
  o.set("max", s.max);
  return json::Value(std::move(o));
}

json::Value SeriesJson(const std::vector<double>& xs, std::size_t points) {
  json::Object o;
  o.set("length", xs.size());
  json::Array samples;
  const std::size_t step = std::max<std::size_t>(1, xs.size() / points);
  samples.reserve(xs.size() / step + 1);
  for (std::size_t t = 0; t < xs.size(); t += step) {
    json::Array pair;
    pair.push_back(json::Value(t));
    pair.push_back(json::Value(xs[t]));
    samples.push_back(json::Value(std::move(pair)));
  }
  o.set("samples", json::Value(std::move(samples)));
  return json::Value(std::move(o));
}

json::Value VectorJson(const std::vector<double>& xs) {
  json::Array a;
  a.reserve(xs.size());
  for (const double x : xs) a.push_back(json::Value(x));
  return json::Value(std::move(a));
}

bool AllFinite(const std::vector<double>& xs) {
  for (const double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace ictm::scenario
