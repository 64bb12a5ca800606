// Edge-case and failure-injection tests across the pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "conngen/fmeasure.hpp"
#include "conngen/packet_trace.hpp"
#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "core/metrics.hpp"
#include "core/fit.hpp"
#include "core/priors.hpp"
#include "dataset/datasets.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"
#include "test_util.hpp"

namespace ictm {
namespace {

// ---- single-bin and tiny-network extremes -------------------------------

TEST(EdgeCases, FitOnSingleBinSeries) {
  stats::Rng rng(1);
  traffic::TrafficMatrixSeries s(4, 1, 300.0);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) s(0, i, j) = rng.uniform(1.0, 9.0);
  const core::StableFPFit fit = core::FitStableFP(s);
  EXPECT_GT(fit.sweeps, 0u);
  EXPECT_GE(fit.f, 0.0);
  EXPECT_NEAR(linalg::Sum(fit.preference), 1.0, 1e-9);
}

TEST(EdgeCases, FitOnTwoNodeNetwork) {
  // n=2 is the smallest meaningful network (one OD pair each way plus
  // self loops).
  stats::Rng rng(2);
  linalg::Matrix act(2, 10);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t t = 0; t < 10; ++t)
      act(i, t) = rng.uniform(1.0, 5.0) *
                  (1.0 + 0.3 * std::sin(0.7 * static_cast<double>(t) +
                                        static_cast<double>(i)));
  const auto series =
      core::EvaluateStableFP(0.3, act, linalg::Vector{0.7, 0.3});
  const core::StableFPFit fit = core::FitStableFP(series);
  EXPECT_LT(fit.objective() / 10.0, 0.05);
}

TEST(EdgeCases, EstimationOnTinyTopology) {
  // 3-node ring: only 6 links, heavily under-constrained.
  const topology::Graph g = topology::MakeRing(3);
  const linalg::CscMatrix r = topology::BuildRouting(g);
  stats::Rng rng(3);
  const linalg::Matrix truth = test::RandomMatrix(3, 3, rng, 1.0, 5.0);
  const linalg::Vector loads = topology::ComputeLinkLoads(r, truth);
  linalg::Vector in(3, 0.0), out(3, 0.0);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) {
      in[i] += truth(i, j);
      out[j] += truth(i, j);
    }
  const linalg::Matrix est = core::EstimateTmBin(
      r, loads, core::GravityPredict(in, out), in, out);
  EXPECT_LE(core::RelL2Temporal(truth, est), 1.0);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_GE(est(i, j), 0.0);
}

// ---- sparse / degenerate traffic -----------------------------------------

TEST(EdgeCases, FitToleratesSparseTm) {
  // Many exact zeros (most OD pairs silent): the NNLS steps must not
  // produce negatives or NaNs.
  traffic::TrafficMatrixSeries s(6, 8, 300.0);
  stats::Rng rng(4);
  for (std::size_t t = 0; t < 8; ++t) {
    s(t, 0, 1) = rng.uniform(5.0, 10.0);
    s(t, 1, 0) = rng.uniform(1.0, 3.0);
    s(t, 2, 3) = rng.uniform(0.5, 1.0);
  }
  const core::StableFPFit fit = core::FitStableFP(s);
  for (double p : fit.preference) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0);
  }
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t t = 0; t < 8; ++t)
      EXPECT_TRUE(std::isfinite(fit.activitySeries(i, t)));
}

TEST(EdgeCases, GravityOnOneSidedMarginals) {
  // A node with ingress but zero egress and vice versa.
  const linalg::Matrix tm =
      core::GravityPredict({10.0, 0.0}, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(tm(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(tm(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(tm(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(tm(1, 1), 0.0);
}

TEST(EdgeCases, StableFPriorWithZeroMarginalNode) {
  // One node completely silent: closed forms produce zero estimates
  // for it, and the prior stays valid.
  core::MarginalSeries m{linalg::Matrix(3, 2, 0.0),
                         linalg::Matrix(3, 2, 0.0)};
  m.ingress(0, 0) = 10;
  m.egress(1, 0) = 10;
  m.ingress(0, 1) = 8;
  m.egress(1, 1) = 8;
  const auto prior = core::StableFPrior(0.25, m);
  EXPECT_TRUE(prior.isValid());
  // Silent node 2 attracts no traffic in the prior.
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_DOUBLE_EQ(prior(t, 2, 2), 0.0);
  }
}

// ---- packet-trace degeneracies --------------------------------------------

TEST(EdgeCases, TraceWithAllTrafficOneDirectionInitiated) {
  conngen::TraceSimConfig cfg;
  cfg.durationSec = 600.0;
  cfg.connectionsPerSec = 10.0;
  cfg.fracInitiatedAtA = 1.0;  // every connection initiated at A
  stats::Rng rng(5);
  const auto trace = conngen::SimulatePacketTraces(cfg, rng);
  const auto m = conngen::MeasureForwardFraction(trace, 300.0);
  // f(A->B) is measurable; f(B->A) has no B-initiated traffic, so all
  // bins are NaN and MeanFiniteF throws.
  EXPECT_NO_THROW(conngen::MeanFiniteF(m.fAB));
  EXPECT_THROW(conngen::MeanFiniteF(m.fBA), ictm::Error);
}

TEST(EdgeCases, TraceShorterThanOneBin) {
  conngen::TraceSimConfig cfg;
  cfg.durationSec = 60.0;
  cfg.connectionsPerSec = 20.0;
  cfg.warmupSec = 10.0;
  stats::Rng rng(6);
  const auto trace = conngen::SimulatePacketTraces(cfg, rng);
  const auto m = conngen::MeasureForwardFraction(trace, 300.0);
  EXPECT_EQ(m.fAB.size(), 1u);  // single partial bin
}

TEST(EdgeCases, ZeroWarmupMeansNoUnknownTraffic) {
  conngen::TraceSimConfig cfg;
  cfg.durationSec = 600.0;
  cfg.connectionsPerSec = 10.0;
  cfg.warmupSec = 0.0;
  stats::Rng rng(7);
  const auto trace = conngen::SimulatePacketTraces(cfg, rng);
  const auto m = conngen::MeasureForwardFraction(trace, 300.0);
  EXPECT_DOUBLE_EQ(m.unknownByteFraction, 0.0);
}

// ---- dataset configuration edge cases --------------------------------------

TEST(EdgeCases, DatasetWithNoJitterOrNoise) {
  dataset::DatasetConfig cfg;
  cfg.seed = 8;
  cfg.peakActivityBytes = 5e7;
  cfg.pairFJitterSigma = 0.0;
  cfg.netflowSampling = false;
  const dataset::Dataset d =
      dataset::MakeSmallDataset(6, 14, 300.0, cfg);
  EXPECT_TRUE(d.truth.isValid());
  // With no jitter, the realized f matches the mix expectation well.
  EXPECT_NEAR(d.realizedForwardFraction,
              conngen::DefaultMix2006().expectedForwardFraction(), 0.03);
}

TEST(EdgeCases, PreferenceCapDisabled) {
  dataset::DatasetConfig cfg;
  cfg.seed = 9;
  cfg.peakActivityBytes = 5e7;
  cfg.preferenceCapShare = 1.0;  // disabled
  const dataset::Dataset d =
      dataset::MakeSmallDataset(6, 14, 300.0, cfg);
  EXPECT_NEAR(linalg::Sum(d.truePreference), 1.0, 1e-9);
}

TEST(EdgeCases, DownsampleStrideLargerThanSeries) {
  traffic::TrafficMatrixSeries s(2, 5, 300.0);
  s(0, 0, 1) = 3.0;
  const auto ds = s.downsample(10);
  EXPECT_EQ(ds.binCount(), 1u);
  EXPECT_DOUBLE_EQ(ds(0, 0, 1), 3.0);
}

// ---- numerical extremes -----------------------------------------------------

TEST(EdgeCases, FitInvariantToGlobalScale) {
  // Scaling all traffic by 1e6 must not change f or P.
  stats::Rng rng(10);
  linalg::Matrix act(4, 12);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t t = 0; t < 12; ++t)
      act(i, t) = rng.uniform(1.0, 5.0) *
                  (1.0 + 0.4 * std::sin(0.5 * static_cast<double>(t) +
                                        1.3 * static_cast<double>(i)));
  const linalg::Vector pref{0.4, 0.3, 0.2, 0.1};
  const auto small = core::EvaluateStableFP(0.3, act, pref);
  const auto big = core::EvaluateStableFP(0.3, act * 1e6, pref);
  const auto fitSmall = core::FitStableFP(small);
  const auto fitBig = core::FitStableFP(big);
  EXPECT_NEAR(fitSmall.f, fitBig.f, 1e-6);
  test::ExpectVectorNear(fitSmall.preference, fitBig.preference, 1e-6);
}

TEST(EdgeCases, RelL2WithHugeValues) {
  linalg::Matrix a(2, 2, 1e300);
  linalg::Matrix b(2, 2, 1e300);
  b(0, 0) = 0.5e300;
  const double err = core::RelL2Temporal(a, b);
  EXPECT_TRUE(std::isfinite(err));
  EXPECT_GT(err, 0.0);
  EXPECT_LT(err, 1.0);
}

}  // namespace
}  // namespace ictm
