// Ablation scenarios: routing asymmetry vs the simplified IC model
// (Sec. 5.6) and the synthetic-TM generation dials (Sec. 5.5).
#include <cmath>

#include "core/general_fit.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "core/synthesis.hpp"
#include "scenario/builtin.hpp"
#include "scenario/common.hpp"
#include "stats/summary.hpp"

namespace ictm::scenario::detail {

namespace {

json::Value RunAsymmetryAblation(const ScenarioContext& ctx,
                                 std::string&) {
  const std::size_t nodes = ctx.tiny ? 6 : 14;
  const std::size_t bins = ctx.tiny ? 42 : 336;
  const std::vector<double> sweep =
      ctx.tiny ? std::vector<double>{0.0, 0.25, 0.5}
               : std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

  json::Object body;
  json::Array rows;
  bool pass = true;
  for (double asym : sweep) {
    dataset::DatasetConfig cfg = ScenarioDatasetConfig(ctx.seed(91));
    cfg.routingAsymmetry = asym;
    cfg.netflowSampling = false;   // isolate the asymmetry effect
    cfg.pairFJitterSigma = 0.3;    // mild jitter so hot-potato dominates
    const dataset::Dataset d =
        dataset::MakeSmallDataset(nodes, bins, 300.0, cfg);
    const core::GeneralIcFit fit = core::FitGeneralIc(d.measured);
    const auto grav = core::GravityPredictSeries(d.measured);
    const double binCount = double(d.measured.binCount());

    // Mean off-diagonal fitted forward fraction.
    double meanF = 0.0;
    std::size_t cnt = 0;
    const std::size_t n = fit.forwardFractions.rows();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i != j) {
          meanF += fit.forwardFractions(i, j);
          ++cnt;
        }
    meanF /= double(cnt);

    json::Object row;
    row.set("asymmetric_fraction", asym);
    row.set("simplified_mean_rel_l2", fit.simplifiedObjective / binCount);
    row.set("general_ic_mean_rel_l2", fit.objective / binCount);
    row.set("gravity_mean_rel_l2",
            core::Mean(core::RelL2TemporalSeries(d.measured, grav)));
    row.set("mean_fitted_f", meanF);
    row.set("fitted_asymmetry",
            core::ForwardFractionAsymmetry(fit.forwardFractions));
    pass = pass && std::isfinite(meanF) &&
           std::isfinite(fit.objective) &&
           fit.objective <= fit.simplifiedObjective + 1e-9;
    rows.push_back(json::Value(std::move(row)));
  }
  body.set("nodes", nodes);
  body.set("bins", bins);
  body.set("sweep", json::Value(std::move(rows)));
  body.set("pass", pass);
  return json::Value(std::move(body));
}

core::SynthesisConfig AblationBaseConfig(const ScenarioContext& ctx) {
  core::SynthesisConfig cfg;
  if (ctx.tiny) {
    cfg.nodes = 6;
    cfg.bins = 42;
    cfg.activityModel.profile.binsPerDay = 6;
  } else {
    cfg.nodes = 16;
    cfg.bins = 672;  // one week of 15-min bins
    cfg.activityModel.profile.binsPerDay = 96;
  }
  cfg.threads = ctx.threads;
  return cfg;
}

/// Mean |X_ij - X_ji| / (X_ij + X_ji) over pairs and bins: how
/// two-way-asymmetric the traffic is.
double Asymmetry(const traffic::TrafficMatrixSeries& s) {
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t < s.binCount(); ++t) {
    for (std::size_t i = 0; i < s.nodeCount(); ++i) {
      for (std::size_t j = i + 1; j < s.nodeCount(); ++j) {
        const double a = s(t, i, j), b = s(t, j, i);
        if (a + b > 0) {
          acc += std::abs(a - b) / (a + b);
          ++count;
        }
      }
    }
  }
  return acc / double(count);
}

json::Value RunSynthesisAblation(const ScenarioContext& ctx,
                                 std::string&) {
  json::Object body;
  bool pass = true;

  // Dial 1: f controls directional asymmetry (what-if: application
  // mix); asymmetry falls to 0 at f = 0.5, and the fitter should
  // round-trip the dialled value.
  json::Array fSweep;
  for (double f : {0.05, 0.15, 0.25, 0.35, 0.45}) {
    core::SynthesisConfig cfg = AblationBaseConfig(ctx);
    cfg.f = f;
    stats::Rng rng(ctx.seed(81));
    const auto synth = core::GenerateSyntheticTm(cfg, rng);
    const auto fit = core::FitStableFP(synth.series);
    json::Object row;
    row.set("f", f);
    row.set("tm_asymmetry", Asymmetry(synth.series));
    row.set("fit_recovers_f", fit.f);
    pass = pass && std::isfinite(fit.f);
    fSweep.push_back(json::Value(std::move(row)));
  }
  body.set("f_sweep", json::Value(std::move(fSweep)));

  // Dial 2: preference spread (hot-spot concentration).
  json::Array sigmaSweep;
  for (double sigma : {0.5, 1.0, 1.7, 2.4}) {
    core::SynthesisConfig cfg = AblationBaseConfig(ctx);
    cfg.preferenceSigma = sigma;
    stats::Rng rng(ctx.seed(82));
    const auto synth = core::GenerateSyntheticTm(cfg, rng);
    std::vector<double> p(synth.preference.begin(),
                          synth.preference.end());
    const auto grav = core::GravityPredictSeries(synth.series);
    json::Object row;
    row.set("sigma", sigma);
    row.set("max_p_over_median", stats::Quantile(p, 1.0) / stats::Median(p));
    row.set("gravity_mean_rel_l2",
            core::Mean(core::RelL2TemporalSeries(synth.series, grav)));
    sigmaSweep.push_back(json::Value(std::move(row)));
  }
  body.set("preference_sigma_sweep", json::Value(std::move(sigmaSweep)));

  // Dial 3: weekend depth of the activity model (user-population dial).
  json::Array weekendSweep;
  for (double wf : {0.3, 0.55, 0.8, 1.0}) {
    core::SynthesisConfig cfg = AblationBaseConfig(ctx);
    cfg.activityModel.profile.weekendFactor = wf;
    stats::Rng rng(ctx.seed(83));
    const auto synth = core::GenerateSyntheticTm(cfg, rng);
    std::vector<double> totals(synth.series.binCount());
    for (std::size_t t = 0; t < totals.size(); ++t)
      totals[t] = synth.series.total(t);
    double weekend = 0.0, weekday = 0.0;
    const std::size_t bpd = cfg.activityModel.profile.binsPerDay;
    std::size_t wkndCount = 0, wkdyCount = 0;
    for (std::size_t t = 0; t < totals.size(); ++t) {
      if ((t / bpd) % 7 >= 5) {
        weekend += totals[t];
        ++wkndCount;
      } else {
        weekday += totals[t];
        ++wkdyCount;
      }
    }
    json::Object row;
    row.set("weekend_factor", wf);
    row.set("weekend_weekday_traffic_ratio",
            (weekend / double(wkndCount)) / (weekday / double(wkdyCount)));
    weekendSweep.push_back(json::Value(std::move(row)));
  }
  body.set("weekend_factor_sweep", json::Value(std::move(weekendSweep)));

  body.set("pass", pass);
  return json::Value(std::move(body));
}

}  // namespace

std::vector<Builtin> AblationScenarios() {
  return {
      {{"asymmetry_ablation", "Sec. 5.6 ablation",
        "routing asymmetry vs the simplified IC model",
        "the simplified (single-f) model degrades as hot-potato "
        "asymmetry grows; the general per-pair IC model recovers the "
        "lost fit quality"},
       RunAsymmetryAblation},
      {{"synthesis_ablation", "Sec. 5.5 ablation",
        "synthetic TM generation dials",
        "f controls directional asymmetry (what-if: application mix); "
        "preference sigma controls hot-spot concentration; the recipe "
        "round-trips through the fitter"},
       RunSynthesisAblation},
  };
}

}  // namespace ictm::scenario::detail
