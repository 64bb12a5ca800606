// Tests for IPF and the tomogravity estimation pipeline (paper Sec. 6).
#include <gtest/gtest.h>

#include <cmath>

#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "core/ic_model.hpp"
#include "core/metrics.hpp"
#include "topology/registry.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"
#include "test_util.hpp"

namespace ictm::core {
namespace {

TEST(IpfTest, MatchesMarginalsOnRandomMatrix) {
  stats::Rng rng(1);
  const linalg::Matrix seed = test::RandomMatrix(5, 5, rng, 0.1, 2.0);
  linalg::Vector rows{10, 20, 5, 8, 7};
  linalg::Vector cols{12, 9, 9, 10, 10};  // both sum to 50
  const linalg::Matrix out = Ipf(seed, rows, cols, 200, 1e-12);
  for (std::size_t i = 0; i < 5; ++i) {
    double rowSum = 0.0, colSum = 0.0;
    for (std::size_t j = 0; j < 5; ++j) {
      rowSum += out(i, j);
      colSum += out(j, i);
      EXPECT_GE(out(i, j), 0.0);
    }
    EXPECT_NEAR(rowSum, rows[i], 1e-6);
    EXPECT_NEAR(colSum, cols[i], 1e-6);
  }
}

TEST(IpfTest, FixedPointWhenAlreadyConsistent) {
  // A matrix already matching its targets is unchanged.
  linalg::Matrix m{{1, 2}, {3, 4}};
  const linalg::Matrix out = Ipf(m, {3, 7}, {4, 6}, 50, 1e-12);
  test::ExpectMatrixNear(out, m, 1e-9);
}

TEST(IpfTest, PreservesZeroCells) {
  // Structural zeros stay zero (IPF multiplies, never adds, once a
  // row/col is non-empty).
  linalg::Matrix m{{0, 2}, {3, 4}};
  const linalg::Matrix out = Ipf(m, {2, 7}, {3, 6}, 200, 1e-12);
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
}

TEST(IpfTest, SeedsEmptyRowsWithPositiveTarget) {
  // Structural-zero instances converge only geometrically (the limit
  // is the permutation matrix [[0,5],[5,0]]), so allow many rounds and
  // a modest tolerance.
  linalg::Matrix m(2, 2, 0.0);
  m(1, 0) = 1.0;
  const linalg::Matrix out = Ipf(m, {5, 5}, {5, 5}, 5000, 1e-12);
  double row0 = out(0, 0) + out(0, 1);
  EXPECT_NEAR(row0, 5.0, 1e-2);
  EXPECT_NEAR(out(0, 1), 5.0, 0.1);
}

TEST(IpfTest, RejectsBadInputs) {
  EXPECT_THROW(Ipf(linalg::Matrix(2, 3), {1, 1}, {1, 1}), ictm::Error);
  EXPECT_THROW(Ipf(linalg::Matrix(2, 2), {1}, {1, 1}), ictm::Error);
  EXPECT_THROW(Ipf(linalg::Matrix(2, 2), {-1, 1}, {0, 0}), ictm::Error);
}

// ---- tomogravity bin estimation -----------------------------------------

struct EstimationFixture {
  topology::Graph graph = topology::MakeRing(6, 2);
  linalg::CscMatrix routing = topology::BuildRouting(graph);
  linalg::Matrix truth;
  linalg::Vector loads;

  EstimationFixture() {
    stats::Rng rng(7);
    truth = test::RandomMatrix(6, 6, rng, 1.0, 10.0);
    loads = topology::ComputeLinkLoads(routing, truth);
  }

  linalg::Vector ingress() const {
    linalg::Vector v(6, 0.0);
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < 6; ++j) v[i] += truth(i, j);
    return v;
  }
  linalg::Vector egress() const {
    linalg::Vector v(6, 0.0);
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < 6; ++j) v[j] += truth(i, j);
    return v;
  }
};

TEST(EstimateTmBinTest, PerfectPriorIsReturnedUnchanged) {
  EstimationFixture fx;
  const linalg::Matrix est = EstimateTmBin(
      fx.routing, fx.loads, fx.truth, fx.ingress(), fx.egress());
  test::ExpectMatrixNear(est, fx.truth, 1e-4);
}

TEST(EstimateTmBinTest, EstimateRespectsMarginals) {
  EstimationFixture fx;
  // Distorted prior: gravity from the marginals.
  const linalg::Matrix prior = GravityPredict(fx.ingress(), fx.egress());
  const linalg::Matrix est = EstimateTmBin(
      fx.routing, fx.loads, prior, fx.ingress(), fx.egress());
  const linalg::Vector in = fx.ingress();
  const linalg::Vector out = fx.egress();
  for (std::size_t i = 0; i < 6; ++i) {
    double rowSum = 0.0, colSum = 0.0;
    for (std::size_t j = 0; j < 6; ++j) {
      rowSum += est(i, j);
      colSum += est(j, i);
    }
    EXPECT_NEAR(rowSum, in[i], in[i] * 1e-4);
    EXPECT_NEAR(colSum, out[i], out[i] * 1e-4);
  }
}

TEST(EstimateTmBinTest, RefinementImprovesOnRawPrior) {
  EstimationFixture fx;
  const linalg::Matrix prior = GravityPredict(fx.ingress(), fx.egress());
  const linalg::Matrix est = EstimateTmBin(
      fx.routing, fx.loads, prior, fx.ingress(), fx.egress());
  EXPECT_LT(RelL2Temporal(fx.truth, est), RelL2Temporal(fx.truth, prior));
}

TEST(EstimateTmBinTest, BetterPriorGivesBetterEstimate) {
  EstimationFixture fx;
  // "Good" prior: truth with mild multiplicative noise.  "Bad" prior:
  // gravity.  The pipeline must preserve the ordering.
  stats::Rng rng(8);
  linalg::Matrix good = fx.truth;
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) good(i, j) *= rng.uniform(0.9, 1.1);
  const linalg::Matrix bad = GravityPredict(fx.ingress(), fx.egress());
  const linalg::Matrix estGood = EstimateTmBin(
      fx.routing, fx.loads, good, fx.ingress(), fx.egress());
  const linalg::Matrix estBad = EstimateTmBin(
      fx.routing, fx.loads, bad, fx.ingress(), fx.egress());
  EXPECT_LT(RelL2Temporal(fx.truth, estGood),
            RelL2Temporal(fx.truth, estBad));
}

TEST(EstimateTmBinTest, WithoutMarginalConstraintsStillReasonable) {
  EstimationFixture fx;
  EstimationOptions opt;
  opt.useMarginalConstraints = false;
  const linalg::Matrix prior = GravityPredict(fx.ingress(), fx.egress());
  const linalg::Matrix est =
      EstimateTmBin(fx.routing, fx.loads, prior, fx.ingress(),
                    fx.egress(), opt);
  EXPECT_LE(RelL2Temporal(fx.truth, est),
            RelL2Temporal(fx.truth, prior) + 1e-9);
}

TEST(EstimateTmBinTest, OutputNonNegative) {
  EstimationFixture fx;
  // Extremely bad prior to provoke negative LS corrections.
  linalg::Matrix prior(6, 6, 1.0);
  const linalg::Matrix est = EstimateTmBin(
      fx.routing, fx.loads, prior, fx.ingress(), fx.egress());
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) EXPECT_GE(est(i, j), 0.0);
}

TEST(EstimateTmBinTest, AllZeroPriorIsIpfOfZeroMatrix) {
  // With an all-zero prior the least-squares correction vanishes (every
  // Gram weight is zero and the push-back multiplies by the prior), so
  // the estimate is exactly IPF seeded from the zero matrix.
  EstimationFixture fx;
  const linalg::Matrix zeros(6, 6, 0.0);
  const linalg::Matrix est = EstimateTmBin(fx.routing, fx.loads, zeros,
                                           fx.ingress(), fx.egress());
  const linalg::Matrix ipf = Ipf(zeros, fx.ingress(), fx.egress());
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) ASSERT_EQ(est(i, j), ipf(i, j));
}

TEST(EstimateTmBinTest, ShapeErrorsThrow) {
  EstimationFixture fx;
  EXPECT_THROW(EstimateTmBin(fx.routing, linalg::Vector(3), fx.truth,
                             fx.ingress(), fx.egress()),
               ictm::Error);
  EXPECT_THROW(EstimateTmBin(fx.routing, fx.loads, linalg::Matrix(5, 5),
                             fx.ingress(), fx.egress()),
               ictm::Error);
  EXPECT_THROW(EstimateTmBin(fx.routing, fx.loads, fx.truth,
                             linalg::Vector(3), fx.egress()),
               ictm::Error);
}

TEST(EstimateSeriesTest, PipelineOverMultipleBins) {
  const topology::Graph g = topology::MakeRing(5, 2);
  const linalg::CscMatrix r = topology::BuildRouting(g);
  stats::Rng rng(9);
  traffic::TrafficMatrixSeries truth(5, 4, 300.0);
  for (std::size_t t = 0; t < 4; ++t)
    for (std::size_t i = 0; i < 5; ++i)
      for (std::size_t j = 0; j < 5; ++j)
        truth(t, i, j) = rng.uniform(1.0, 10.0);
  const auto prior = GravityPredictSeries(truth);
  const auto est = EstimateSeries(r, truth, prior);
  EXPECT_EQ(est.binCount(), 4u);
  // Refined estimates beat the raw prior in every bin.
  const auto errEst = RelL2TemporalSeries(truth, est);
  const auto errPrior = RelL2TemporalSeries(truth, prior);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_LE(errEst[t], errPrior[t] + 1e-9);
  }
  EXPECT_THROW(EstimateSeries(r, truth, prior.slice(0, 2)), ictm::Error);
}

TEST(EstimateSeriesTest, TwelveDecadePriorFiniteAndThreadInvariant) {
  // A prior spanning twelve decades, 1e6·10^U(−6, 6) per OD pair, is
  // the worst conditioning the ridged Cholesky sees; the estimate must
  // stay finite, non-negative and bit-identical across thread counts.
  const topology::Graph g = topology::MakeTopology("hierarchy:22", 0);
  const linalg::CscMatrix routing = topology::BuildRouting(g);
  const std::size_t n = g.nodeCount();
  const auto truth = test::RandomSeries(n, 6, 210);
  traffic::TrafficMatrixSeries prior(n, truth.binCount(), 300.0);
  stats::Rng rng(3);
  for (std::size_t t = 0; t < prior.binCount(); ++t) {
    for (std::size_t k = 0; k < n * n; ++k) {
      prior.binData(t)[k] = 1e6 * std::pow(10.0, rng.uniform(-6.0, 6.0));
    }
  }
  EstimationOptions options;
  const auto serial = EstimateSeries(routing, truth, prior, options);
  options.threads = 8;
  test::ExpectBitIdentical(
      serial, EstimateSeries(routing, truth, prior, options));
  for (std::size_t t = 0; t < serial.binCount(); ++t) {
    for (std::size_t k = 0; k < n * n; ++k) {
      ASSERT_TRUE(std::isfinite(serial.binData(t)[k]));
      ASSERT_GE(serial.binData(t)[k], 0.0);
    }
  }
}

}  // namespace
}  // namespace ictm::core
