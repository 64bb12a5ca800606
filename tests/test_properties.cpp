// Parameterized property suites: model and pipeline invariants swept
// across parameter grids (f values, network sizes, seeds, topologies).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/estimation.hpp"
#include "core/fit.hpp"
#include "core/gravity.hpp"
#include "core/ic_model.hpp"
#include "core/metrics.hpp"
#include "core/priors.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"
#include "traffic/io.hpp"
#include "test_util.hpp"

namespace ictm {
namespace {

// ---- IC model invariants across (f, n) ----------------------------------

class IcModelSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(IcModelSweep, TotalTrafficEqualsTotalActivity) {
  const auto [f, n] = GetParam();
  stats::Rng rng(static_cast<std::uint64_t>(n * 1000 + std::size_t(f * 100)));
  core::IcParameters p{f, test::RandomPositiveVector(n, rng),
                       test::RandomPositiveVector(n, rng)};
  const linalg::Matrix tm = core::EvaluateSimplifiedIc(p);
  EXPECT_NEAR(tm.sum(), linalg::Sum(p.activity),
              1e-9 * linalg::Sum(p.activity));
}

TEST_P(IcModelSweep, AllEntriesNonNegative) {
  const auto [f, n] = GetParam();
  stats::Rng rng(static_cast<std::uint64_t>(n * 2000 + std::size_t(f * 100)));
  core::IcParameters p{f, test::RandomPositiveVector(n, rng, 0.0, 5.0),
                       test::RandomPositiveVector(n, rng)};
  const linalg::Matrix tm = core::EvaluateSimplifiedIc(p);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) EXPECT_GE(tm(i, j), 0.0);
}

TEST_P(IcModelSweep, ActivityOperatorConsistent) {
  const auto [f, n] = GetParam();
  stats::Rng rng(static_cast<std::uint64_t>(n * 3000 + std::size_t(f * 100)));
  const linalg::Vector pref = test::RandomPositiveVector(n, rng);
  const linalg::Vector act = test::RandomPositiveVector(n, rng);
  const linalg::Vector viaOperator =
      test::BuildActivityOperator(f, pref) * act;
  const linalg::Matrix direct =
      core::EvaluateSimplifiedIc({f, act, pref});
  test::ExpectVectorNear(viaOperator, topology::FlattenTm(direct), 1e-10);
}

TEST_P(IcModelSweep, StableFClosedFormsInvertTheModel) {
  const auto [f, n] = GetParam();
  if (std::fabs(f - 0.5) < 0.02) {
    GTEST_SKIP() << "closed forms singular near f = 1/2";
  }
  stats::Rng rng(static_cast<std::uint64_t>(n * 4000 + std::size_t(f * 100)));
  const linalg::Vector act = test::RandomPositiveVector(n, rng, 0.5, 3.0);
  linalg::Vector pref = test::RandomPositiveVector(n, rng);
  const double s = linalg::Sum(pref);
  for (double& p : pref) p /= s;
  const linalg::Matrix tm = core::EvaluateSimplifiedIc({f, act, pref});
  linalg::Vector in(n, 0.0), out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      in[i] += tm(i, j);
      out[j] += tm(i, j);
    }
  const core::StableFEstimates est =
      core::EstimateStableFParameters(f, in, out);
  test::ExpectVectorNear(est.activity, act, 1e-8);
  test::ExpectVectorNear(est.preference, pref, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IcModelSweep,
    ::testing::Combine(::testing::Values(0.05, 0.15, 0.25, 0.35, 0.45,
                                         0.65, 0.9),
                       ::testing::Values(std::size_t{2}, std::size_t{5},
                                         std::size_t{12},
                                         std::size_t{23})));

// ---- gravity invariants ---------------------------------------------------

class GravitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GravitySweep, MarginalsPreserved) {
  const std::size_t n = GetParam();
  stats::Rng rng(n);
  // Build consistent marginals (equal sums).
  linalg::Vector in = test::RandomPositiveVector(n, rng, 1.0, 10.0);
  linalg::Vector out = test::RandomPositiveVector(n, rng, 1.0, 10.0);
  const double scale = linalg::Sum(in) / linalg::Sum(out);
  for (double& o : out) o *= scale;
  const linalg::Matrix tm = core::GravityPredict(in, out);
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0, colSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      rowSum += tm(i, j);
      colSum += tm(j, i);
    }
    EXPECT_NEAR(rowSum, in[i], 1e-9 * in[i]);
    EXPECT_NEAR(colSum, out[i], 1e-9 * out[i]);
  }
}

TEST_P(GravitySweep, IdempotentOnItsOwnOutput) {
  // gravity(marginals(gravity TM)) == gravity TM.
  const std::size_t n = GetParam();
  stats::Rng rng(n + 77);
  linalg::Vector in = test::RandomPositiveVector(n, rng, 1.0, 10.0);
  linalg::Vector out = test::RandomPositiveVector(n, rng, 1.0, 10.0);
  const double scale = linalg::Sum(in) / linalg::Sum(out);
  for (double& o : out) o *= scale;
  const linalg::Matrix tm = core::GravityPredict(in, out);
  linalg::Vector in2(n, 0.0), out2(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      in2[i] += tm(i, j);
      out2[j] += tm(i, j);
    }
  test::ExpectMatrixNear(core::GravityPredict(in2, out2), tm, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GravitySweep,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{9}, std::size_t{22},
                                           std::size_t{40}));

// ---- fit recovery across true f -------------------------------------------

class FitRecoverySweep : public ::testing::TestWithParam<double> {};

TEST_P(FitRecoverySweep, RecoversTrueFOnExactData) {
  const double trueF = GetParam();
  stats::Rng rng(static_cast<std::uint64_t>(trueF * 1e4));
  const std::size_t n = 6, bins = 36;
  linalg::Vector pref = test::RandomPositiveVector(n, rng, 0.2, 2.0);
  linalg::Matrix act(n, bins);
  for (std::size_t i = 0; i < n; ++i) {
    const double base = rng.uniform(1.0, 10.0);
    const double wobble = rng.uniform(0.3, 0.8);
    const double phase = rng.uniform(0.0, 6.0);
    for (std::size_t t = 0; t < bins; ++t)
      act(i, t) = base * (1.0 + wobble * std::sin(phase + 0.41 * double(t) +
                                                  0.17 * double(i * t)));
  }
  const auto series = core::EvaluateStableFP(trueF, act, pref);
  const core::StableFPFit fit = core::FitStableFP(series);
  EXPECT_NEAR(fit.f, trueF, 0.03) << "true f = " << trueF;
  EXPECT_LT(fit.objective() / double(bins), 0.02);
}

INSTANTIATE_TEST_SUITE_P(FGrid, FitRecoverySweep,
                         ::testing::Values(0.08, 0.15, 0.22, 0.30, 0.38,
                                           0.45));

// ---- IPF properties ---------------------------------------------------------

class IpfSweep : public ::testing::TestWithParam<int> {};

TEST_P(IpfSweep, RandomInstancesMatchMarginals) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + GetParam() % 6;
  const linalg::Matrix seed = test::RandomMatrix(n, n, rng, 0.05, 2.0);
  linalg::Vector rows = test::RandomPositiveVector(n, rng, 1.0, 10.0);
  linalg::Vector cols = test::RandomPositiveVector(n, rng, 1.0, 10.0);
  const double scale = linalg::Sum(rows) / linalg::Sum(cols);
  for (double& c : cols) c *= scale;
  const linalg::Matrix out = core::Ipf(seed, rows, cols, 500, 1e-12);
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0, colSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      rowSum += out(i, j);
      colSum += out(j, i);
      EXPECT_GE(out(i, j), 0.0);
    }
    EXPECT_NEAR(rowSum, rows[i], 1e-6 * rows[i]);
    EXPECT_NEAR(colSum, cols[i], 1e-6 * cols[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, IpfSweep, ::testing::Range(200, 215));

// ---- routing invariants across topologies ----------------------------------

class TopologySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TopologySweep, RingRoutingConservesFlow) {
  const std::size_t n = GetParam();
  const topology::Graph g = topology::MakeRing(n, n >= 6 ? 3 : 0);
  const linalg::Matrix r = topology::BuildRoutingMatrix(g);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d) continue;
      double outOfSource = 0.0;
      for (std::size_t l = 0; l < g.linkCount(); ++l) {
        if (g.link(l).src == s) outOfSource += r(l, s * n + d);
      }
      EXPECT_NEAR(outOfSource, 1.0, 1e-9);
    }
  }
}

TEST_P(TopologySweep, LinkLoadsScaleLinearly) {
  const std::size_t n = GetParam();
  const topology::Graph g = topology::MakeRing(n);
  const linalg::Matrix r = topology::BuildRoutingMatrix(g);
  stats::Rng rng(n);
  const linalg::Matrix tm = test::RandomMatrix(n, n, rng, 0.0, 5.0);
  const linalg::Vector y1 = topology::ComputeLinkLoads(r, tm);
  const linalg::Vector y2 = topology::ComputeLinkLoads(r, tm * 3.0);
  for (std::size_t l = 0; l < y1.size(); ++l) {
    EXPECT_NEAR(y2[l], 3.0 * y1[l], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, TopologySweep,
                         ::testing::Values(std::size_t{3}, std::size_t{5},
                                           std::size_t{8},
                                           std::size_t{13}));

// ---- estimation end-to-end invariants ---------------------------------------

class EstimationSweep : public ::testing::TestWithParam<int> {};

TEST_P(EstimationSweep, EstimateNeverWorseThanPriorOnLinkFit) {
  // After refinement, the estimate reproduces the link loads at least
  // as well as the raw prior did.
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 6;
  const topology::Graph g = topology::MakeRing(n, 2);
  const linalg::Matrix r = topology::BuildRoutingMatrix(g);
  const linalg::Matrix truth = test::RandomMatrix(n, n, rng, 1.0, 10.0);
  const linalg::Vector loads = topology::ComputeLinkLoads(r, truth);
  linalg::Vector in(n, 0.0), out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      in[i] += truth(i, j);
      out[j] += truth(i, j);
    }
  const linalg::Matrix prior = core::GravityPredict(in, out);
  const linalg::Matrix est =
      core::EstimateTmBin(r, loads, prior, in, out);

  const double priorLinkErr =
      linalg::Norm2(linalg::Sub(topology::ComputeLinkLoads(r, prior),
                                loads));
  const double estLinkErr = linalg::Norm2(
      linalg::Sub(topology::ComputeLinkLoads(r, est), loads));
  EXPECT_LE(estLinkErr, priorLinkErr * 1.05 + 1e-9);
  // And the TM error does not regress either.
  EXPECT_LE(core::RelL2Temporal(truth, est),
            core::RelL2Temporal(truth, prior) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimationSweep,
                         ::testing::Range(300, 312));

// ---- CSV round trips across shapes -----------------------------------------

class CsvSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(CsvSweep, RoundTrip) {
  const auto [n, bins] = GetParam();
  stats::Rng rng(n * 100 + bins);
  traffic::TrafficMatrixSeries s(n, bins, 300.0);
  for (std::size_t t = 0; t < bins; ++t)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        s(t, i, j) = rng.uniform(0.0, 1e12);
  std::stringstream ss;
  traffic::WriteCsv(ss, s);
  const traffic::TrafficMatrixSeries back = traffic::ReadCsv(ss);
  for (std::size_t t = 0; t < bins; ++t)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_DOUBLE_EQ(back(t, i, j), s(t, i, j));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CsvSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{10}),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{20})));

// ---- prior exactness across f ----------------------------------------------

class PriorSweep : public ::testing::TestWithParam<double> {};

TEST_P(PriorSweep, StableFPPriorExactAcrossF) {
  const double f = GetParam();
  stats::Rng rng(static_cast<std::uint64_t>(f * 1e4) + 9);
  const std::size_t n = 7, bins = 5;
  linalg::Vector pref = test::RandomPositiveVector(n, rng);
  const double s = linalg::Sum(pref);
  for (double& p : pref) p /= s;
  linalg::Matrix act(n, bins);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t t = 0; t < bins; ++t)
      act(i, t) = rng.uniform(1e5, 1e7);
  const auto series = core::EvaluateStableFP(f, act, pref);
  const auto prior = core::StableFPPrior(
      f, pref, core::ExtractMarginals(series));
  for (std::size_t t = 0; t < bins; ++t) {
    EXPECT_LT(core::RelL2Temporal(series.bin(t), prior.bin(t)), 1e-6)
        << "f = " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(FGrid, PriorSweep,
                         ::testing::Values(0.05, 0.2, 0.35, 0.5, 0.7,
                                           0.95));

}  // namespace
}  // namespace ictm
