// Capacity planning with synthetic traffic matrices (paper Sec. 5.5).
//
// An operator wants to know how link utilisation on a Géant-like
// backbone responds to "what-if" scenarios.  The IC model's inputs map
// directly onto the questions:
//   - application-mix shift (P2P boom) .......... dial f up,
//   - a service becoming a hot spot ............. concentrate {P_i},
//   - user growth at one PoP .................... scale {A_i(t)}.
//
// For each scenario we synthesise a day of TMs, route them over the
// topology, and report the most-loaded links.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/synthesis.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

using namespace ictm;

namespace {

struct LinkLoadReport {
  double maxLoad = 0.0;
  std::size_t maxLink = 0;
  double totalTraffic = 0.0;
};

LinkLoadReport PeakLoads(const topology::Graph& g,
                         const linalg::CscMatrix& routing,
                         const traffic::TrafficMatrixSeries& tms) {
  LinkLoadReport report;
  for (std::size_t t = 0; t < tms.binCount(); ++t) {
    const linalg::Vector loads =
        topology::ComputeLinkLoads(routing, tms.bin(t));
    for (std::size_t l = 0; l < loads.size(); ++l) {
      if (loads[l] > report.maxLoad) {
        report.maxLoad = loads[l];
        report.maxLink = l;
      }
    }
    report.totalTraffic += tms.total(t);
  }
  (void)g;
  return report;
}

void Report(const char* scenario, const topology::Graph& g,
            const linalg::CscMatrix& routing,
            const traffic::TrafficMatrixSeries& tms) {
  const LinkLoadReport r = PeakLoads(g, routing, tms);
  const topology::Link& link = g.link(r.maxLink);
  std::printf("%-28s peak link %s->%s at %7.2f GB/bin  (total %7.1f "
              "GB/day)\n",
              scenario, g.nodeName(link.src).c_str(),
              g.nodeName(link.dst).c_str(), r.maxLoad / 1e9,
              r.totalTraffic / 1e9);
}

core::SynthesisConfig BaseConfig() {
  core::SynthesisConfig cfg;
  cfg.nodes = 22;              // matches MakeGeant22()
  cfg.bins = 288;              // one day of 5-minute bins
  cfg.f = 0.25;
  cfg.activityModel.profile.binsPerDay = 288;
  cfg.activityModel.peakLevel = 2e9;
  return cfg;
}

}  // namespace

int main() {
  const topology::Graph g = topology::MakeGeant22();
  const linalg::CscMatrix routing = topology::BuildRouting(g);
  std::printf("Geant-like backbone: %zu PoPs, %zu directed links\n\n",
              g.nodeCount(), g.linkCount());

  // Baseline day.
  stats::Rng rng(2024);
  core::SynthesisConfig cfg = BaseConfig();
  const core::SyntheticTm baseline = core::GenerateSyntheticTm(cfg, rng);
  Report("baseline (f=0.25)", g, routing, baseline.series);

  // Scenario 1: P2P boom — the application mix becomes more
  // symmetric, so more bytes flow initiator->responder.
  {
    stats::Rng r2(2024);
    core::SynthesisConfig s = BaseConfig();
    s.f = 0.42;
    Report("P2P boom (f=0.42)", g, routing,
           core::GenerateSyntheticTm(s, r2).series);
  }

  // Scenario 2: flash crowd — one node's preference grows 10x
  // (synthesise with the baseline parameters, then re-evaluate with a
  // modified preference vector to hold everything else fixed).
  {
    linalg::Vector hot = baseline.preference;
    const std::size_t target =
        std::max_element(hot.begin(), hot.end()) - hot.begin();
    hot[target] *= 10.0;
    const auto series = core::EvaluateStableFP(
        baseline.f, baseline.activitySeries, hot, 300.0);
    std::printf("(flash crowd at PoP '%s')\n",
                g.nodeName(target).c_str());
    Report("flash crowd (P x10)", g, routing, series);
  }

  // Scenario 3: user growth — double the activity of the three
  // smallest PoPs (new customer regions).
  {
    linalg::Matrix act = baseline.activitySeries;
    std::vector<double> mean(act.rows(), 0.0);
    for (std::size_t i = 0; i < act.rows(); ++i)
      for (std::size_t t = 0; t < act.cols(); ++t)
        mean[i] += act(i, t);
    std::vector<std::size_t> order(act.rows());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return mean[a] < mean[b];
              });
    for (std::size_t k = 0; k < 3; ++k)
      for (std::size_t t = 0; t < act.cols(); ++t)
        act(order[k], t) *= 2.0;
    const auto series = core::EvaluateStableFP(
        baseline.f, act, baseline.preference, 300.0);
    Report("edge growth (3 PoPs x2)", g, routing, series);
  }

  std::printf(
      "\nEach dial is a physical quantity (Sec. 5.5): f = application "
      "mix,\n{P_i} = service popularity, {A_i(t)} = user activity.\n");
  return 0;
}
