// Scaling scenarios: the thread fan-outs of the estimation and
// synthesis engines must be bit-identical for every thread count, and
// should speed up on multicore hosts.  The correctness facts go into
// the (deterministic) result document; wall-clock timings are
// run-environment facts and go to the notes channel only, keeping
// `ictm run all --threads N` output bit-identical to `--threads 1`.
#include <cmath>
#include <cstdio>

#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "core/synthesis.hpp"
#include "obs/now.hpp"
#include "scenario/builtin.hpp"
#include "scenario/common.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"

namespace ictm::scenario::detail {

namespace {

/// Thread counts the determinism checks compare.  Fixed (rather than
/// taken from the context) so the result document does not depend on
/// the run environment.
constexpr std::size_t kBaselineThreads = 1;
constexpr std::size_t kFanoutThreads = 4;

void AppendTimingNote(std::string& notes, const char* what, double sec1,
                      double secN) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: %.3f s at %zu thread(s), %.3f s at %zu "
                "(speedup %.2fx)\n",
                what, sec1, kBaselineThreads, secN, kFanoutThreads,
                secN > 0.0 ? sec1 / secN : 0.0);
  notes += buf;
}

json::Value RunEstimationScale(const ScenarioContext& ctx,
                               std::string& notes) {
  // --topology substitutes any registry spec or .ictp file for the
  // canonical backbone (configuration, like the seed offset).
  const topology::Graph g =
      !ctx.topology.empty()
          ? topology::MakeTopology(ctx.topology, ctx.seed(91))
          : (ctx.tiny ? topology::MakeRing(6, 2)
                      : topology::MakeGeant22());
  const std::size_t n = g.nodeCount();
  const std::size_t bins = ctx.tiny ? 24 : 504;
  const linalg::CscMatrix routing = topology::BuildRouting(g);

  // Diurnally varying random traffic plus gravity priors from the
  // marginals (the realistic worst case for the refinement: every OD
  // pair active, dense prior support).
  const traffic::TrafficMatrixSeries truth =
      DiurnalTraffic(n, bins, ctx.seed(42));
  const traffic::TrafficMatrixSeries priors =
      core::GravityPredictSeries(truth);

  core::EstimationOptions options;
  options.threads = kBaselineThreads;
  std::uint64_t t0 = obs::Now();
  const auto est1 = core::EstimateSeries(routing, truth, priors, options);
  const double sec1 = obs::ElapsedSeconds(t0);

  options.threads = kFanoutThreads;
  t0 = obs::Now();
  const auto estN = core::EstimateSeries(routing, truth, priors, options);
  const double secN = obs::ElapsedSeconds(t0);
  AppendTimingNote(notes, "EstimateSeries", sec1, secN);

  const bool identical = BitIdentical(est1, estN);
  const auto errEst = core::RelL2TemporalSeries(truth, est1);
  const auto errPrior = core::RelL2TemporalSeries(truth, priors);

  json::Object body;
  body.set("topology", ctx.topology.empty()
                           ? (ctx.tiny ? "ring:6:2" : "geant22")
                           : ctx.topology);
  body.set("nodes", n);
  body.set("links", g.linkCount());
  body.set("bins", bins);
  body.set("threads_compared", json::Array{json::Value(kBaselineThreads),
                                           json::Value(kFanoutThreads)});
  body.set("bit_identical_across_threads", identical);
  body.set("est_err_summary", SummaryJson(errEst));
  body.set("prior_err_summary", SummaryJson(errPrior));
  body.set("improvement_pct_mean",
           core::Mean(core::PercentImprovementSeries(errPrior, errEst)));
  body.set("pass", identical && AllFinite(errEst));
  return json::Value(std::move(body));
}

json::Value RunSynthesisScale(const ScenarioContext& ctx,
                              std::string& notes) {
  core::SynthesisConfig cfg;
  if (ctx.tiny) {
    cfg.nodes = 6;
    cfg.bins = 42;
    cfg.activityModel.profile.binsPerDay = 6;
  } else {
    cfg.nodes = 22;
    cfg.bins = 2016;  // one week of 5-minute bins
  }

  cfg.threads = kBaselineThreads;
  stats::Rng rng1(ctx.seed(7));
  std::uint64_t t0 = obs::Now();
  const core::SyntheticTm synth1 = core::GenerateSyntheticTm(cfg, rng1);
  const double sec1 = obs::ElapsedSeconds(t0);

  cfg.threads = kFanoutThreads;
  stats::Rng rngN(ctx.seed(7));
  t0 = obs::Now();
  const core::SyntheticTm synthN = core::GenerateSyntheticTm(cfg, rngN);
  const double secN = obs::ElapsedSeconds(t0);
  AppendTimingNote(notes, "GenerateSyntheticTm", sec1, secN);

  bool identical = BitIdentical(synth1.series, synthN.series);
  for (std::size_t i = 0; i < synth1.preference.size(); ++i) {
    identical = identical &&
                synth1.preference[i] == synthN.preference[i];
  }
  for (std::size_t i = 0; i < cfg.nodes && identical; ++i) {
    for (std::size_t t = 0; t < cfg.bins; ++t) {
      if (synth1.activitySeries(i, t) != synthN.activitySeries(i, t)) {
        identical = false;
        break;
      }
    }
  }

  std::vector<double> totals(synth1.series.binCount());
  for (std::size_t t = 0; t < totals.size(); ++t)
    totals[t] = synth1.series.total(t);

  json::Object body;
  body.set("nodes", cfg.nodes);
  body.set("bins", cfg.bins);
  body.set("f", cfg.f);
  body.set("threads_compared", json::Array{json::Value(kBaselineThreads),
                                           json::Value(kFanoutThreads)});
  body.set("bit_identical_across_threads", identical);
  body.set("total_traffic_summary", SummaryJson(totals));
  body.set("preference", VectorJson(synth1.preference));
  body.set("pass", identical && AllFinite(totals) &&
                       synth1.series.isValid());
  return json::Value(std::move(body));
}

}  // namespace

std::vector<Builtin> ScaleScenarios() {
  return {
      {{"estimation_scale", "repo",
        "estimation thread fan-out: determinism and scaling",
        "EstimateSeries is bit-identical for every thread count and "
        "speeds up on multicore hosts (see also "
        "bench_estimation_scale for the legacy-baseline comparison)"},
       RunEstimationScale},
      {{"synthesis_scale", "repo",
        "synthesis thread fan-out: determinism and scaling",
        "GenerateSyntheticTm is bit-identical for every thread count; "
        "per-node activity generation and per-bin composition fan out "
        "across workers"},
       RunSynthesisScale},
  };
}

}  // namespace ictm::scenario::detail
