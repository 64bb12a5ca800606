// The operator's TM-estimation workflow (paper Sec. 6.2 scenario).
//
// Week 1: netflow collection is enabled once; the operator fits the
//         stable-fP IC parameters (f, {P_i}) from the measured TMs.
// Week 2: only SNMP is available (link loads + ingress/egress
//         counters).  The stable-fP prior turns the marginals into a
//         full TM prior; tomogravity least squares + IPF refine it.
//
// The same pipeline is run with a gravity prior for comparison.
#include <algorithm>
#include <cstdio>

#include "core/estimation.hpp"
#include "core/fit.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "core/priors.hpp"
#include "dataset/datasets.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

using namespace ictm;

int main() {
  // Two weeks of Géant-like traffic (smaller volume for a quick run).
  dataset::DatasetConfig cfg;
  cfg.seed = 7;
  cfg.weeks = 2;
  cfg.peakActivityBytes = 5e7;
  const dataset::Dataset d = dataset::MakeGeantLike(cfg);
  const std::size_t bpw = d.binsPerWeek;
  const auto week1 = d.measured.slice(0, bpw);
  const auto week2 = d.measured.slice(bpw, bpw);

  std::printf("calibration: fitting stable-fP on week 1 (%zu bins)\n",
              week1.binCount());
  const core::StableFPFit fit = core::FitStableFP(week1);
  std::printf("  f = %.3f, %zu sweeps, objective %.1f\n\n", fit.f,
              fit.sweeps, fit.objective());

  // Week 2: SNMP only.  Simulate the measurements.
  const topology::Graph g = topology::MakeGeant22();
  const linalg::CscMatrix routing = topology::BuildRouting(g);
  const core::MarginalSeries margs = core::ExtractMarginals(week2);

  std::printf("estimation: week 2 from link loads + marginals only\n");
  const auto icPrior =
      core::StableFPPrior(fit.f, fit.preference, margs, d.binSeconds);
  const auto gravPrior = core::GravityPriorSeries(margs, d.binSeconds);

  // To keep the example fast, estimate every 8th bin.
  const auto target = week2.downsample(8);
  const auto icPriorDs = icPrior.downsample(8);
  const auto gravPriorDs = gravPrior.downsample(8);

  const auto estIc = core::EstimateSeries(routing, target, icPriorDs);
  const auto estGrav = core::EstimateSeries(routing, target, gravPriorDs);

  const auto icErr = core::RelL2TemporalSeries(target, estIc);
  const auto gravErr = core::RelL2TemporalSeries(target, estGrav);
  std::printf("  mean RelL2, gravity prior:   %.4f\n",
              core::Mean(gravErr));
  std::printf("  mean RelL2, stable-fP prior: %.4f\n",
              core::Mean(icErr));
  std::printf("  improvement: %.1f%%\n",
              core::Mean(core::PercentImprovementSeries(gravErr, icErr)));

  // Where does the improvement come from?  Show the five largest OD
  // flows' per-flow (spatial) errors.
  std::printf("\nper-OD-flow errors (5 largest flows):\n");
  const std::size_t n = target.nodeCount();
  std::vector<std::pair<double, std::pair<std::size_t, std::size_t>>>
      flows;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double volume = 0.0;
      for (std::size_t t = 0; t < target.binCount(); ++t)
        volume += target(t, i, j);
      flows.push_back({volume, {i, j}});
    }
  }
  std::sort(flows.rbegin(), flows.rend());
  std::printf("%8s %8s %14s %14s\n", "origin", "dest", "gravity",
              "stable-fP");
  for (std::size_t k = 0; k < 5; ++k) {
    const auto [i, j] = flows[k].second;
    std::printf("%8s %8s %14.4f %14.4f\n", g.nodeName(i).c_str(),
                g.nodeName(j).c_str(),
                core::RelL2Spatial(target, estGrav, i, j),
                core::RelL2Spatial(target, estIc, i, j));
  }
  return 0;
}
