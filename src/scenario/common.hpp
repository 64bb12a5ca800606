// Shared setup for the built-in scenarios: the canonical dataset
// configurations the bench harnesses used (peak activity reduced from
// the realistic default to keep each scenario under a minute — the
// gravity/IC comparison is insensitive to absolute scale), their tiny
// 6-node counterparts for tests, and JSON builders for the summary
// statistics every figure reports.
#pragma once

#include <string>
#include <vector>

#include "core/estimation.hpp"
#include "core/fit.hpp"
#include "dataset/datasets.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"

namespace ictm::scenario {

/// True when both series have the same shape and every element
/// compares exactly equal — the check behind each threads=N ≡
/// threads=1 contract.
bool BitIdentical(const traffic::TrafficMatrixSeries& a,
                  const traffic::TrafficMatrixSeries& b);

/// Dataset configuration shared across scenarios, Géant- and
/// Totem-like alike: the peak activity is reduced for runtime.
dataset::DatasetConfig ScenarioDatasetConfig(std::uint64_t seed);

/// Scale-aware dataset builder: full scale uses the 22-node Géant-like
/// or 23-node Totem-like paper shapes; tiny uses a 6-node, 42-bins-
/// per-week equivalent so every scenario also runs in tests.
dataset::Dataset MakeScenarioDataset(const ScenarioContext& ctx,
                                     bool totem,
                                     std::uint64_t canonicalSeed,
                                     std::size_t weeks = 1);

/// Generates `weeks` of data and fits the stable-fP model to each week
/// separately (used by Figs. 5-9).
struct WeeklyFitResult {
  /// The generated dataset spanning all weeks.
  dataset::Dataset data;
  /// One stable-fP fit per week.
  std::vector<core::StableFPFit> fits;
};

/// Builds the dataset and runs the per-week fits.
WeeklyFitResult FitWeekly(const ScenarioContext& ctx, bool totem,
                          std::size_t weeks, std::uint64_t canonicalSeed);

/// Diurnally varying random traffic, every OD pair active: entry
/// (t, i, j) is (1 + 0.5·sin(2πt/288))·uniform(1e6, 1e7), drawn from
/// `seed` in bin-major, row-major order, with 300 s bins.  The
/// workload of the estimation and streaming scaling studies.
traffic::TrafficMatrixSeries DiurnalTraffic(std::size_t nodes,
                                            std::size_t bins,
                                            std::uint64_t seed);

/// One entry of the generated-backbone node-count sweep shared by the
/// topo_scale scenario and `bench_estimation_scale --topo-sweep`.
struct TopoSweepEntry {
  std::string spec;  ///< topology registry spec, e.g. "hierarchy:50"
  std::size_t bins;  ///< synthetic bins to estimate
};

/// The canonical full-scale sweep: hierarchical backbones at 22, 50,
/// 100 and 200 nodes, bin counts shrinking as n² grows so a run stays
/// under a minute.
const std::vector<TopoSweepEntry>& DefaultTopoSweep();

/// Measurements from one sweep entry run through the compressed
/// estimation path at two thread counts.
struct TopoSweepRun {
  std::size_t nodes = 0;          ///< resolved node count
  std::size_t links = 0;          ///< directed link count
  std::size_t routingRows = 0;    ///< routing matrix rows (= links)
  std::size_t routingNnz = 0;     ///< routing matrix non-zeros
  double routingDensityPct = 0.0; ///< non-zero fraction in percent
  double secBaseline = 0.0;       ///< wall clock at baselineThreads
  double secFanout = 0.0;         ///< wall clock at fanoutThreads
  bool bitIdentical = false;      ///< fan-out ≡ baseline bit for bit
  std::vector<double> errEst;     ///< per-bin RelL2 of the estimate
  std::vector<double> errPrior;   ///< per-bin RelL2 of the gravity prior
};

/// Resolves `entry.spec` (seeded generators use `topologySeed`),
/// synthesizes diurnally varying random traffic from `trafficSeed`
/// with gravity priors, and runs the compressed EstimateSeries at the
/// two thread counts.  The dense routing matrix is never materialised
/// — the point of the sweep at n = 200.
TopoSweepRun RunTopoSweepEntry(const TopoSweepEntry& entry,
                               std::uint64_t topologySeed,
                               std::uint64_t trafficSeed,
                               std::size_t baselineThreads,
                               std::size_t fanoutThreads);

/// {"mean","p10","p50","p90","min","max"} of a sample.
json::Value SummaryJson(const std::vector<double>& xs);

/// Downsampled rendering of a series: up to `points` evenly spaced
/// [index, value] pairs plus the full length, mirroring the benches'
/// PrintSeries.
json::Value SeriesJson(const std::vector<double>& xs,
                       std::size_t points = 16);

/// A numeric vector as a JSON array (linalg::Vector is an alias of
/// std::vector<double>, so this covers both).
json::Value VectorJson(const std::vector<double>& xs);

/// True when every element is finite.
bool AllFinite(const std::vector<double>& xs);

}  // namespace ictm::scenario
