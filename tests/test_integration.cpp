// End-to-end integration tests: the paper's headline claims exercised
// on small simulated datasets through the full public API.
#include <gtest/gtest.h>

#include "conngen/fmeasure.hpp"
#include "conngen/packet_trace.hpp"
#include "core/estimation.hpp"
#include "core/fit.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "core/priors.hpp"
#include "core/synthesis.hpp"
#include "dataset/datasets.hpp"
#include "stats/summary.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"
#include "test_util.hpp"

namespace ictm {
namespace {

dataset::Dataset SmallWorld(std::uint64_t seed) {
  dataset::DatasetConfig cfg;
  cfg.seed = seed;
  cfg.peakActivityBytes = 2e8;
  return dataset::MakeSmallDataset(10, 56, 300.0, cfg);
}

TEST(Integration, IcModelFitsConnectionTrafficBetterThanGravity) {
  // The Fig. 3 claim on a small instance: the stable-fP IC model,
  // despite ~half the DoF, reconstructs connection-generated traffic
  // better than the gravity model.
  const dataset::Dataset d = SmallWorld(101);
  const core::StableFPFit fit = core::FitStableFP(d.measured);
  const auto icErr = core::RelL2TemporalSeries(
      d.measured, core::ReconstructSeries(fit, 300.0));
  const auto gErr = core::RelL2TemporalSeries(
      d.measured, core::GravityPredictSeries(d.measured));
  EXPECT_GT(core::Mean(core::PercentImprovementSeries(gErr, icErr)), 5.0);
}

TEST(Integration, FittedForwardFractionNearGeneratorTruth) {
  const dataset::Dataset d = SmallWorld(102);
  const core::StableFPFit fit = core::FitStableFP(d.measured);
  EXPECT_NEAR(fit.f, d.realizedForwardFraction, 0.12);
}

TEST(Integration, FittedPreferenceCorrelatesWithTruth) {
  const dataset::Dataset d = SmallWorld(103);
  const core::StableFPFit fit = core::FitStableFP(d.measured);
  // Rank correlation between fitted and generating preferences.
  std::vector<double> a(fit.preference.begin(), fit.preference.end());
  std::vector<double> b(d.truePreference.begin(), d.truePreference.end());
  EXPECT_GT(stats::SpearmanCorrelation(a, b), 0.7);
}

TEST(Integration, ParameterStabilityAcrossWeeks) {
  // Sec. 5.2/5.3: f and P fitted on consecutive "weeks" of the same
  // network are close.
  dataset::DatasetConfig cfg;
  cfg.seed = 104;
  cfg.peakActivityBytes = 2e8;
  // Moderate per-pair jitter keeps the realized f in the paper's
  // 0.2-0.3 band (at n=8 the default jitter can push a realization
  // towards the f = 1/2 identifiability boundary).
  cfg.pairFJitterSigma = 0.5;
  const dataset::Dataset d =
      dataset::MakeSmallDataset(8, 112, 300.0, cfg);
  const auto week1 = d.measured.slice(0, 56);
  const auto week2 = d.measured.slice(56, 56);
  const core::StableFPFit f1 = core::FitStableFP(week1);
  const core::StableFPFit f2 = core::FitStableFP(week2);
  EXPECT_NEAR(f1.f, f2.f, 0.08);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(f1.preference[i], f2.preference[i], 0.06) << "node " << i;
  }
}

TEST(Integration, EstimationWithIcPriorBeatsGravityPrior) {
  // The Fig. 11/12 claim end-to-end: tomogravity estimation from link
  // loads is more accurate with the IC prior than the gravity prior.
  const dataset::Dataset d = SmallWorld(105);
  const topology::Graph g = topology::MakeRing(10, 3);
  const linalg::CscMatrix r = topology::BuildRouting(g);

  const core::StableFPFit fit = core::FitStableFP(d.measured);
  const core::MarginalSeries margs = core::ExtractMarginals(d.truth);
  const auto sub = d.truth.slice(0, 12);

  const auto icPrior =
      core::StableFPPrior(fit.f, fit.preference, margs).slice(0, 12);
  const auto gravPrior = core::GravityPriorSeries(margs).slice(0, 12);

  const auto estIc = core::EstimateSeries(r, sub, icPrior);
  const auto estGrav = core::EstimateSeries(r, sub, gravPrior);
  const double icErr = core::Mean(core::RelL2TemporalSeries(sub, estIc));
  const double gravErr =
      core::Mean(core::RelL2TemporalSeries(sub, estGrav));
  EXPECT_LT(icErr, gravErr);
}

TEST(Integration, StableFPriorAlsoBeatsGravityOnAverage) {
  // The Fig. 13 scenario: only f is known; A and P come from the
  // closed forms on current marginals.
  const dataset::Dataset d = SmallWorld(106);
  const core::MarginalSeries margs = core::ExtractMarginals(d.truth);
  const auto icPrior =
      core::StableFPrior(d.realizedForwardFraction, margs);
  const auto gravPrior = core::GravityPriorSeries(margs);
  const double icErr =
      core::Mean(core::RelL2TemporalSeries(d.truth, icPrior));
  const double gravErr =
      core::Mean(core::RelL2TemporalSeries(d.truth, gravPrior));
  EXPECT_LT(icErr, gravErr);
}

TEST(Integration, SyntheticRecipeRoundTrips) {
  // Sec. 5.5: generate a synthetic TM with the recipe, then verify the
  // fitter recovers the generating parameters from the series alone.
  core::SynthesisConfig cfg;
  cfg.nodes = 8;
  cfg.bins = 56;
  cfg.f = 0.28;
  cfg.activityModel.profile.binsPerDay = 8;
  stats::Rng rng(107);
  const core::SyntheticTm synth = core::GenerateSyntheticTm(cfg, rng);
  const core::StableFPFit fit = core::FitStableFP(synth.series);
  EXPECT_NEAR(fit.f, 0.28, 0.05);
  test::ExpectVectorNear(fit.preference, synth.preference, 0.05);
}

TEST(Integration, PacketTraceFMatchesTmLevelFit) {
  // The two ways of measuring f (packet traces, Sec. 5.2; TM fitting,
  // Sec. 5.1) agree on data from the same application mix.
  conngen::TraceSimConfig traceCfg;
  traceCfg.durationSec = 1800.0;
  traceCfg.connectionsPerSec = 40.0;
  stats::Rng rngTrace(108);
  const auto trace = conngen::SimulatePacketTraces(traceCfg, rngTrace);
  const auto fm = conngen::MeasureForwardFraction(trace);
  const double fFromTraces = conngen::MeanFiniteF(fm.fAB);

  const dataset::Dataset d = SmallWorld(109);
  const core::StableFPFit fit = core::FitStableFP(d.measured);
  EXPECT_NEAR(fFromTraces, fit.f, 0.15);
}

TEST(Integration, RoutingAsymmetryDegradesSimplifiedIcFit) {
  // Sec. 5.6: hot-potato asymmetry hurts the simplified IC model.
  dataset::DatasetConfig clean;
  clean.seed = 110;
  clean.peakActivityBytes = 2e8;
  clean.netflowSampling = false;
  dataset::DatasetConfig asym = clean;
  asym.routingAsymmetry = 0.5;
  const auto dClean = dataset::MakeSmallDataset(8, 42, 300.0, clean);
  const auto dAsym = dataset::MakeSmallDataset(8, 42, 300.0, asym);
  const auto fitClean = core::FitStableFP(dClean.measured);
  const auto fitAsym = core::FitStableFP(dAsym.measured);
  const double errClean =
      fitClean.objective() / double(dClean.measured.binCount());
  const double errAsym =
      fitAsym.objective() / double(dAsym.measured.binCount());
  EXPECT_GT(errAsym, errClean);
}

}  // namespace
}  // namespace ictm
