// Tests for the TM-estimation priors (paper Sec. 6): gravity,
// stable-fP (Eqs. 7-9) and stable-f closed forms (Eqs. 11-12).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/fit.hpp"
#include "core/gravity.hpp"
#include "core/ic_model.hpp"
#include "core/metrics.hpp"
#include "core/priors.hpp"
#include "test_util.hpp"

namespace ictm::core {
namespace {

// Exact stable-fP instance shared by the prior tests.
struct Instance {
  double f = 0.25;
  linalg::Vector preference;
  linalg::Matrix activity;
  traffic::TrafficMatrixSeries series{1, 1};
};

Instance MakeInstance(std::size_t n, std::size_t bins, std::uint64_t seed,
                      double f = 0.25) {
  stats::Rng rng(seed);
  Instance inst;
  inst.f = f;
  inst.preference = test::RandomPositiveVector(n, rng, 0.2, 2.0);
  const double s = linalg::Sum(inst.preference);
  for (double& p : inst.preference) p /= s;
  inst.activity = linalg::Matrix(n, bins);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t t = 0; t < bins; ++t)
      inst.activity(i, t) = rng.uniform(1e5, 1e7);
  inst.series = EvaluateStableFP(f, inst.activity, inst.preference);
  return inst;
}

TEST(Marginals, ExtractionMatchesSeries) {
  const Instance inst = MakeInstance(4, 5, 1);
  const MarginalSeries m = ExtractMarginals(inst.series);
  EXPECT_EQ(m.nodeCount(), 4u);
  EXPECT_EQ(m.binCount(), 5u);
  for (std::size_t t = 0; t < 5; ++t) {
    test::ExpectVectorNear(m.ingress.col(t), inst.series.ingress(t),
                           1e-12);
    test::ExpectVectorNear(m.egress.col(t), inst.series.egress(t), 1e-12);
  }
  EXPECT_NO_THROW(m.validate());
}

TEST(Marginals, ValidationCatchesShapeAndSign) {
  MarginalSeries m{linalg::Matrix(2, 3), linalg::Matrix(2, 2)};
  EXPECT_THROW(m.validate(), ictm::Error);
  m.egress = linalg::Matrix(2, 3);
  m.ingress(0, 0) = -1.0;
  EXPECT_THROW(m.validate(), ictm::Error);
}

TEST(GravityPrior, MatchesDirectGravityPrediction) {
  const Instance inst = MakeInstance(5, 4, 2);
  const MarginalSeries m = ExtractMarginals(inst.series);
  const auto prior = GravityPriorSeries(m);
  for (std::size_t t = 0; t < 4; ++t) {
    test::ExpectMatrixNear(prior.bin(t),
                           GravityPredictBin(inst.series, t), 1e-9);
  }
}

TEST(StableFPPriorTest, ExactWhenModelHolds) {
  // With the true (f, P) and marginals from exact stable-fP data, the
  // pseudo-inverse recovers A(t) and the prior equals the truth.
  const Instance inst = MakeInstance(6, 8, 3);
  const MarginalSeries m = ExtractMarginals(inst.series);
  linalg::Matrix estActivity;
  const auto prior =
      StableFPPrior(inst.f, inst.preference, m, 300.0, &estActivity);
  for (std::size_t t = 0; t < 8; ++t) {
    test::ExpectMatrixNear(prior.bin(t), inst.series.bin(t),
                           1e-6 * inst.series.bin(t).maxAbs());
  }
  // Recovered activities match the generating ones.
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t t = 0; t < 8; ++t)
      EXPECT_NEAR(estActivity(i, t), inst.activity(i, t),
                  1e-6 * inst.activity(i, t));
}

TEST(StableFPPriorTest, BetterThanGravityWithWrongishParameters) {
  // Even with (f, P) measured on a *different* week (here: perturbed),
  // the IC prior should reconstruct IC-structured traffic better than
  // gravity — the Sec. 6.2 scenario.
  const Instance inst = MakeInstance(6, 10, 4);
  stats::Rng rng(5);
  linalg::Vector noisyPref = inst.preference;
  for (double& p : noisyPref) p *= rng.uniform(0.9, 1.1);
  const MarginalSeries m = ExtractMarginals(inst.series);
  const auto icPrior = StableFPPrior(inst.f + 0.02, noisyPref, m);
  const auto gravPrior = GravityPriorSeries(m);
  const double icErr = RelL2Objective(inst.series, icPrior);
  const double gravErr = RelL2Objective(inst.series, gravPrior);
  EXPECT_LT(icErr, gravErr);
}

TEST(StableFPPriorTest, OutputNonNegative) {
  const Instance inst = MakeInstance(5, 6, 6);
  const MarginalSeries m = ExtractMarginals(inst.series);
  const auto prior = StableFPPrior(0.3, inst.preference, m);
  EXPECT_TRUE(prior.isValid());
}

TEST(StableFPPriorTest, RejectsInvalidPreference) {
  // {2, -1, 1} used to pass the positive-sum check and silently give a
  // wrong prior; a sum that overflows cannot be normalised.
  const Instance inst = MakeInstance(3, 2, 13);
  const MarginalSeries m = ExtractMarginals(inst.series);
  const std::vector<linalg::Vector> bad = {
      {2.0, -1.0, 1.0},
      {0.0, 0.0, 0.0},
      {1.0, std::numeric_limits<double>::quiet_NaN(), 1.0},
      {1.0, 1.0, std::numeric_limits<double>::infinity()},
      {1e308, 1e308, 1e308}};
  for (const linalg::Vector& pref : bad) {
    EXPECT_THROW(StableFPPrior(0.25, pref, m), ictm::Error);
  }
}

TEST(StableFPPriorTest, RecoversExactSeriesAtThousandNodes) {
  // No n^2 x n operator is built (a dense Phi alone would take 8 GB at
  // n = 1000), so a bin costs O(n^2).
  const Instance inst = MakeInstance(1000, 2, 14);
  const auto prior = StableFPPrior(inst.f, inst.preference,
                                   ExtractMarginals(inst.series));
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_LT(RelL2Temporal(inst.series.bin(t), prior.bin(t)), 1e-9);
  }
}

TEST(StableFEstimatesTest, ClosedFormsExactOnExactData) {
  // Eqs. 11-12 derive (A, P) from one bin's marginals when the
  // simplified IC model holds exactly.
  const Instance inst = MakeInstance(6, 3, 7, 0.25);
  for (std::size_t t = 0; t < 3; ++t) {
    const StableFEstimates est = EstimateStableFParameters(
        inst.f, inst.series.ingress(t), inst.series.egress(t));
    test::ExpectVectorNear(est.preference, inst.preference, 1e-9);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(est.activity[i], inst.activity(i, t),
                  1e-6 * inst.activity(i, t));
    }
  }
}

TEST(StableFEstimatesTest, SingularAtHalf) {
  EXPECT_THROW(EstimateStableFParameters(0.5, {1.0, 2.0}, {2.0, 1.0}),
               ictm::Error);
  EXPECT_THROW(
      EstimateStableFParameters(0.5 + 1e-9, {1.0, 2.0}, {2.0, 1.0}),
      ictm::Error);
  EXPECT_NO_THROW(
      EstimateStableFParameters(0.45, {1.0, 2.0}, {2.0, 1.0}));
}

TEST(StableFEstimatesTest, NegativeEstimatesClampToZero) {
  // Marginals inconsistent with the model can push raw estimates
  // negative; the implementation clamps (documented behaviour).
  const StableFEstimates est =
      EstimateStableFParameters(0.25, {100.0, 0.0}, {0.0, 100.0});
  for (double a : est.activity) EXPECT_GE(a, 0.0);
  for (double p : est.preference) EXPECT_GE(p, 0.0);
  EXPECT_NEAR(linalg::Sum(est.preference), 1.0, 1e-9);
}

TEST(StableFPriorTest, ExactOnExactData) {
  const Instance inst = MakeInstance(5, 6, 8, 0.3);
  const MarginalSeries m = ExtractMarginals(inst.series);
  const auto prior = StableFPrior(inst.f, m);
  for (std::size_t t = 0; t < 6; ++t) {
    test::ExpectMatrixNear(prior.bin(t), inst.series.bin(t),
                           1e-6 * inst.series.bin(t).maxAbs());
  }
}

TEST(StableFPriorTest, WorksAcrossFRange) {
  for (double f : {0.1, 0.2, 0.35, 0.45, 0.6, 0.8}) {
    const Instance inst = MakeInstance(4, 4, 9, f);
    const MarginalSeries m = ExtractMarginals(inst.series);
    const auto prior = StableFPrior(f, m);
    const double err = RelL2Objective(inst.series, prior) / 4.0;
    EXPECT_LT(err, 1e-6) << "f=" << f;
  }
}

TEST(StableFPriorTest, DegradesGracefullyWithWrongF) {
  // Using a wrong f produces a worse—but still valid—prior.
  const Instance inst = MakeInstance(5, 5, 10, 0.25);
  const MarginalSeries m = ExtractMarginals(inst.series);
  const auto right = StableFPrior(0.25, m);
  const auto wrong = StableFPrior(0.4, m);
  EXPECT_LE(RelL2Objective(inst.series, right),
            RelL2Objective(inst.series, wrong));
  EXPECT_TRUE(wrong.isValid());
}

TEST(Priors, FitThenPriorPipelineRecoversHeldOutWeek) {
  // Sec. 6.2 end-to-end on exact data: fit (f, P) on "week 1", build
  // the stable-fP prior for "week 2" from marginals only.
  const Instance week1 = MakeInstance(5, 12, 11);
  stats::Rng rng(12);
  linalg::Matrix act2(5, 12);
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t t = 0; t < 12; ++t)
      act2(i, t) = rng.uniform(1e5, 1e7);
  const auto week2 =
      EvaluateStableFP(week1.f, act2, week1.preference);

  const StableFPFit fit = FitStableFP(week1.series);
  const auto prior =
      StableFPPrior(fit.f, fit.preference, ExtractMarginals(week2));
  const double err = RelL2Objective(week2, prior) / 12.0;
  EXPECT_LT(err, 0.05);
}

}  // namespace
}  // namespace ictm::core
