// What-if scenario: the paper's Sec. 5.5 argument is that the IC
// inputs are physically meaningful dials.  This study turns the
// preference dial for one node — a flash crowd / new content hot spot
// — and quantifies how the whole TM responds, something the gravity
// model cannot express (it would rescale every flow proportionally).
#include <algorithm>
#include <cmath>

#include "core/gravity.hpp"
#include "core/ic_model.hpp"
#include "core/metrics.hpp"
#include "core/synthesis.hpp"
#include "scenario/builtin.hpp"
#include "scenario/common.hpp"

namespace ictm::scenario::detail {

namespace {

json::Value RunWhatIfHotspot(const ScenarioContext& ctx, std::string&) {
  core::SynthesisConfig cfg;
  if (ctx.tiny) {
    cfg.nodes = 6;
    cfg.bins = 42;
    cfg.activityModel.profile.binsPerDay = 6;
  } else {
    cfg.nodes = 16;
    cfg.bins = 672;
    cfg.activityModel.profile.binsPerDay = 96;
  }
  cfg.threads = ctx.threads;
  stats::Rng rng(ctx.seed(77));
  const core::SyntheticTm base = core::GenerateSyntheticTm(cfg, rng);

  // Find the node with the median preference — boosting an already-hot
  // node would understate the redistribution.
  std::size_t hotspot = 0;
  {
    std::vector<std::size_t> order(cfg.nodes);
    for (std::size_t i = 0; i < cfg.nodes; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                return base.preference[a] < base.preference[b];
              });
    hotspot = order[cfg.nodes / 2];
  }

  json::Object body;
  body.set("nodes", cfg.nodes);
  body.set("bins", cfg.bins);
  body.set("hotspot_node", hotspot);
  body.set("baseline_preference", VectorJson(base.preference));

  const double baseEgress =
      base.series.meanNormalizedEgress()[hotspot];
  body.set("baseline_hotspot_egress_share", baseEgress);

  json::Array sweep;
  bool pass = true;
  double prevEgress = baseEgress;
  for (double boost : {2.0, 5.0, 10.0}) {
    // Re-compose the same activities with the boosted preference —
    // the what-if keeps user populations fixed and only moves content.
    linalg::Vector pref = base.preference;
    pref[hotspot] *= boost;
    double sum = 0.0;
    for (double p : pref) sum += p;
    for (double& p : pref) p /= sum;

    const auto what = core::EvaluateStableFP(
        cfg.f, base.activitySeries, pref, cfg.binSeconds, ctx.threads);

    const double egress = what.meanNormalizedEgress()[hotspot];
    // How far the new TM is from the baseline, and from what a
    // gravity-style proportional rescale would predict.
    const auto shift = core::RelL2TemporalSeries(base.series, what);
    const auto grav = core::GravityPredictSeries(what);
    const auto gravErr = core::RelL2TemporalSeries(what, grav);

    json::Object row;
    row.set("preference_boost", boost);
    row.set("hotspot_preference_share", pref[hotspot]);
    row.set("hotspot_egress_share", egress);
    row.set("tm_shift_rel_l2", SummaryJson(shift));
    row.set("gravity_fit_rel_l2", SummaryJson(gravErr));
    // The dial must actually move traffic toward the hot spot,
    // monotonically in the boost.
    pass = pass && egress > prevEgress && AllFinite(shift);
    prevEgress = egress;
    sweep.push_back(json::Value(std::move(row)));
  }
  body.set("boost_sweep", json::Value(std::move(sweep)));
  body.set("pass", pass);
  return json::Value(std::move(body));
}

}  // namespace

std::vector<Builtin> WhatIfScenarios() {
  return {
      {{"whatif_hotspot", "repo",
        "what-if study: preference hot spot (flash crowd)",
        "boosting one node's preference pulls egress share toward it "
        "monotonically while activities stay fixed — the IC dials "
        "express a scenario the gravity model cannot"},
       RunWhatIfHotspot},
  };
}

}  // namespace ictm::scenario::detail
