// Tests for the IC model family, including the paper's Sec. 3 worked
// example (Fig. 2), the DoF accounting of Sec. 5.1 and the closed-form
// stable-fP kernel against its dense oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/gravity.hpp"
#include "core/ic_model.hpp"
#include "linalg/svd.hpp"
#include "topology/routing.hpp"
#include "traffic/tm_series.hpp"
#include "test_util.hpp"

namespace ictm::core {
namespace {

TEST(IcParameters, ValidationCatchesBadInputs) {
  IcParameters p{0.25, {1.0, 2.0}, {0.5, 0.5}};
  EXPECT_NO_THROW(p.validate());
  p.f = 0.0;
  EXPECT_THROW(p.validate(), ictm::Error);
  p = IcParameters{0.25, {1.0, -1.0}, {0.5, 0.5}};
  EXPECT_THROW(p.validate(), ictm::Error);
  p = IcParameters{0.25, {1.0, 1.0}, {0.0, 0.0}};
  EXPECT_THROW(p.validate(), ictm::Error);
  p = IcParameters{0.25, {1.0}, {0.5, 0.5}};
  EXPECT_THROW(p.validate(), ictm::Error);
}

TEST(SimplifiedIc, MatchesHandComputedTwoNodeCase) {
  // n=2, f=0.25, A=(100, 0), P=(0.5, 0.5) normalised.
  // X_00 = f*A_0*0.5 + (1-f)*A_0*0.5 = 50.
  // X_01 = f*A_0*0.5 + (1-f)*A_1*0.5 = 12.5.
  // X_10 = f*A_1*0.5 + (1-f)*A_0*0.5 = 37.5.
  IcParameters p{0.25, {100.0, 0.0}, {1.0, 1.0}};
  const linalg::Matrix tm = EvaluateSimplifiedIc(p);
  EXPECT_DOUBLE_EQ(tm(0, 0), 50.0);
  EXPECT_DOUBLE_EQ(tm(0, 1), 12.5);
  EXPECT_DOUBLE_EQ(tm(1, 0), 37.5);
  EXPECT_DOUBLE_EQ(tm(1, 1), 0.0);
}

TEST(SimplifiedIc, TotalTrafficEqualsTotalActivity) {
  // Summing Eq. 2 over all (i, j) gives sum_i A_i: every activity byte
  // appears exactly once in the TM.
  stats::Rng rng(1);
  IcParameters p{0.3, test::RandomPositiveVector(6, rng),
                 test::RandomPositiveVector(6, rng)};
  const linalg::Matrix tm = EvaluateSimplifiedIc(p);
  EXPECT_NEAR(tm.sum(), linalg::Sum(p.activity), 1e-9);
}

TEST(SimplifiedIc, PreferenceScaleInvariance) {
  stats::Rng rng(2);
  IcParameters p{0.3, test::RandomPositiveVector(5, rng),
                 test::RandomPositiveVector(5, rng)};
  IcParameters scaled = p;
  scaled.preference = linalg::Scale(p.preference, 17.0);
  test::ExpectMatrixNear(EvaluateSimplifiedIc(p),
                         EvaluateSimplifiedIc(scaled), 1e-9);
}

TEST(SimplifiedIc, MirrorSymmetry) {
  // (f, A, P) and (1-f, cP, A/c) produce the same TM when A and P swap
  // roles — the identifiability caveat documented in FitOptions.
  stats::Rng rng(3);
  const linalg::Vector a = test::RandomPositiveVector(4, rng);
  const linalg::Vector p = test::RandomPositiveVector(4, rng);
  const double sumA = linalg::Sum(a);
  const double sumP = linalg::Sum(p);
  IcParameters orig{0.3, a, p};
  // Mirror: activity' = P * sumA (to preserve total traffic),
  // preference' = A (scale irrelevant), f' = 1 - f.
  IcParameters mirror{0.7, linalg::Scale(p, sumA / sumP), a};
  test::ExpectMatrixNear(EvaluateSimplifiedIc(orig),
                         EvaluateSimplifiedIc(mirror), 1e-9);
}

TEST(GeneralIc, ReducesToSimplifiedWhenFConstant) {
  stats::Rng rng(4);
  const linalg::Vector a = test::RandomPositiveVector(5, rng);
  const linalg::Vector p = test::RandomPositiveVector(5, rng);
  const linalg::Matrix fMat(5, 5, 0.3);
  test::ExpectMatrixNear(EvaluateGeneralIc(fMat, a, p),
                         EvaluateSimplifiedIc({0.3, a, p}), 1e-12);
}

TEST(GeneralIc, AsymmetricFChangesOnlyAffectedPairs) {
  linalg::Vector a{10.0, 5.0, 2.0};
  linalg::Vector p{0.5, 0.3, 0.2};
  linalg::Matrix fMat(3, 3, 0.25);
  const linalg::Matrix base = EvaluateGeneralIc(fMat, a, p);
  fMat(0, 1) = 0.9;  // affects X_01 (forward term) and X_10 (reverse)
  const linalg::Matrix changed = EvaluateGeneralIc(fMat, a, p);
  EXPECT_NE(changed(0, 1), base(0, 1));
  EXPECT_NE(changed(1, 0), base(1, 0));
  EXPECT_DOUBLE_EQ(changed(2, 2), base(2, 2));
  EXPECT_DOUBLE_EQ(changed(0, 2), base(0, 2));
}

TEST(GeneralIc, RejectsOutOfRangeF) {
  linalg::Vector a{1.0, 1.0};
  linalg::Vector p{0.5, 0.5};
  linalg::Matrix fMat(2, 2, 1.5);
  EXPECT_THROW(EvaluateGeneralIc(fMat, a, p), ictm::Error);
}

TEST(StableFP, SeriesEvaluationMatchesPerBin) {
  stats::Rng rng(5);
  const std::size_t n = 4, bins = 3;
  linalg::Matrix activity(n, bins);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t t = 0; t < bins; ++t)
      activity(i, t) = rng.uniform(1.0, 5.0);
  const linalg::Vector pref = test::RandomPositiveVector(n, rng);
  const auto series = EvaluateStableFP(0.25, activity, pref);
  for (std::size_t t = 0; t < bins; ++t) {
    IcParameters p{0.25, activity.col(t), pref};
    test::ExpectMatrixNear(series.bin(t), EvaluateSimplifiedIc(p), 1e-12);
  }
}

TEST(ActivityOperator, MatchesModelEvaluation) {
  // Phi * A must equal the flattened simplified IC output (Eq. 7).
  stats::Rng rng(6);
  const linalg::Vector pref = test::RandomPositiveVector(5, rng);
  const linalg::Vector act = test::RandomPositiveVector(5, rng);
  const linalg::Matrix phi = test::BuildActivityOperator(0.3, pref);
  const linalg::Vector x = phi * act;
  const linalg::Matrix tm = EvaluateSimplifiedIc({0.3, act, pref});
  test::ExpectVectorNear(x, topology::FlattenTm(tm), 1e-12);
}

TEST(ActivityOperator, ColumnSumsAreOne) {
  // Each unit of activity lands somewhere in the TM: the operator's
  // columns each sum to f + (1 - f) = 1.
  stats::Rng rng(7);
  const linalg::Vector pref = test::RandomPositiveVector(6, rng);
  const linalg::Matrix phi = test::BuildActivityOperator(0.27, pref);
  for (std::size_t k = 0; k < 6; ++k) {
    double colSum = 0.0;
    for (std::size_t r = 0; r < phi.rows(); ++r) colSum += phi(r, k);
    EXPECT_NEAR(colSum, 1.0, 1e-12);
  }
}

// ---- closed-form stable-fP kernel vs the dense oracle -------------------
//
// The oracle is the paper's literal construction: Phi (Eq. 7), the
// marginal operator Q and the Jacobi-SVD pseudo-inverse of Q Phi
// (Eq. 8).  The grid covers the least-squares case: ingress and
// egress totals differ, so no activity vector reproduces both.

// Un-normalised preference shapes: uniform, one node holding ~0.99 of
// the mass, and exact zeros (every third node from the second on).
linalg::Vector OraclePreference(int shape, std::size_t n, stats::Rng& rng) {
  linalg::Vector p(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (shape == 0) {
      p[i] = 3.0;
    } else if (shape == 1) {
      p[i] = i == 0 ? 0.99 : 0.01 / static_cast<double>(n - 1);
    } else {
      p[i] = i % 3 == 1 ? 0.0 : rng.uniform(0.5, 2.0);
    }
  }
  return p;
}

// max |got - want| relative to max |want|.
double MaxRelDiff(const double* got, const double* want, std::size_t len) {
  double diff = 0.0;
  double scale = 0.0;
  for (std::size_t k = 0; k < len; ++k) {
    diff = std::max(diff, std::fabs(got[k] - want[k]));
    scale = std::max(scale, std::fabs(want[k]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

// Runs `check(f, n, preference, rng)` over f x n x preference shape.
template <typename Check>
void ForEachOracleCase(const Check& check) {
  for (double f : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    for (std::size_t n : {1u, 2u, 7u, 23u, 64u}) {
      for (int shape : {0, 1, 2}) {
        SCOPED_TRACE("f=" + std::to_string(f) + " n=" + std::to_string(n) +
                     " shape=" + std::to_string(shape));
        stats::Rng rng(1000 * n + 10 * static_cast<std::uint64_t>(shape) +
                       static_cast<std::uint64_t>(f * 100));
        check(f, n, OraclePreference(shape, n, rng), rng);
      }
    }
  }
}

TEST(StableFPKernel, PriorBinMatchesDensePseudoInverse) {
  std::size_t clamped = 0;
  ForEachOracleCase([&clamped](double f, std::size_t n,
                               const linalg::Vector& pref, stats::Rng& rng) {
    const linalg::Matrix phi = test::BuildActivityOperator(f, pref);
    const linalg::Matrix qphiPinv =
        linalg::PseudoInverse(traffic::BuildMarginalOperator(n) * phi);
    // Egress carries ~1.3x the ingress volume: inconsistent marginals.
    linalg::Vector counts(2 * n);
    for (std::size_t i = 0; i < n; ++i) counts[i] = rng.uniform(0.0, 1e7);
    for (std::size_t i = 0; i < n; ++i) {
      counts[n + i] = 1.3 * rng.uniform(0.0, 1e7);
    }
    const linalg::Vector wantActivity = qphiPinv * counts;
    linalg::Vector wantBin = phi * wantActivity;
    for (double& x : wantBin) {
      if (x < 0.0) ++clamped;
      x = std::max(x, 0.0);
    }

    linalg::Vector activity(n), bin(n * n);
    StableFPKernel(f, pref).PriorBin(counts.data(), counts.data() + n,
                                     activity.data(), bin.data());
    EXPECT_LE(MaxRelDiff(activity.data(), wantActivity.data(), n), 1e-10);
    EXPECT_LE(MaxRelDiff(bin.data(), wantBin.data(), n * n), 1e-10);
  });
  EXPECT_GT(clamped, 0u) << "the grid never exercised the Eq. 9 clamp";
}

TEST(StableFPKernel, GramAndTransposeApplyMatchDenseOperator) {
  ForEachOracleCase([](double f, std::size_t n, const linalg::Vector& pref,
                       stats::Rng& rng) {
    const linalg::Matrix phi = test::BuildActivityOperator(f, pref);
    const StableFPKernel kernel(f, pref);
    const linalg::Matrix wantGram = phi.transposed() * phi;
    EXPECT_LE(MaxRelDiff(kernel.Gram().data().data(), wantGram.data().data(),
                         n * n),
              1e-10);
    const linalg::Vector x = test::RandomVector(n * n, rng, 0.0, 1e9);
    const linalg::Vector want = linalg::TransposeTimes(phi, x);
    EXPECT_LE(MaxRelDiff(kernel.TransposeApply(x.data()).data(), want.data(),
                         n),
              1e-10);
  });
}

TEST(StableFPKernel, KeepsPreferenceAsGiven) {
  // The checkpoint stores the un-normalised vector; normalising twice
  // is not bit-stable, so the kernel must hand back its input verbatim.
  const linalg::Vector pref{0.3, 1.7, 0.0, 2.9};
  const StableFPKernel kernel(0.25, pref);
  EXPECT_EQ(kernel.preference(), pref);
  EXPECT_EQ(kernel.nodeCount(), 4u);
}

TEST(DegreesOfFreedomTest, MatchesPaperSection51) {
  // Paper: gravity 2nt-1, time-varying 3nt, stable-f 2nt+1,
  // stable-fP nt+n+1.
  const std::size_t n = 22, t = 2016;
  EXPECT_EQ(DegreesOfFreedom::Gravity(n, t), 2 * n * t - 1);
  EXPECT_EQ(DegreesOfFreedom::TimeVaryingIc(n, t), 3 * n * t);
  EXPECT_EQ(DegreesOfFreedom::StableFIc(n, t), 2 * n * t + 1);
  EXPECT_EQ(DegreesOfFreedom::StableFPIc(n, t), n * t + n + 1);
  // The headline claim: stable-fP has about half the gravity DoF.
  EXPECT_LT(DegreesOfFreedom::StableFPIc(n, t),
            DegreesOfFreedom::Gravity(n, t));
}

// ---- the Sec. 3 / Fig. 2 worked example --------------------------------

TEST(Fig2Example, MatrixMarginalsMatchPaper) {
  const linalg::Matrix tm = BuildFig2ExampleTm();
  // Row sums (X_i*): A=403, B=109, C=106; total 618.
  double rowA = 0, rowB = 0, rowC = 0;
  for (std::size_t j = 0; j < 3; ++j) {
    rowA += tm(0, j);
    rowB += tm(1, j);
    rowC += tm(2, j);
  }
  EXPECT_DOUBLE_EQ(rowA, 403.0);
  EXPECT_DOUBLE_EQ(rowB, 109.0);
  EXPECT_DOUBLE_EQ(rowC, 106.0);
  EXPECT_DOUBLE_EQ(tm.sum(), 618.0);
}

TEST(Fig2Example, ConditionalProbabilitiesMatchPaper) {
  // P[E=A|I=A] ~ 0.50, P[E=A|I=B] ~ 0.93, P[E=A|I=C] ~ 0.95,
  // P[E=A] ~ 0.65 — the packet-independence violation.
  const linalg::Matrix tm = BuildFig2ExampleTm();
  EXPECT_NEAR(ConditionalEgressProbability(tm, 0, 0), 200.0 / 403.0, 1e-12);
  EXPECT_NEAR(ConditionalEgressProbability(tm, 1, 0), 102.0 / 109.0, 1e-12);
  EXPECT_NEAR(ConditionalEgressProbability(tm, 2, 0), 101.0 / 106.0, 1e-12);
  EXPECT_NEAR(EgressProbability(tm, 0), 403.0 / 618.0, 1e-12);
}

TEST(Fig2Example, GravityModelCannotReproduceIt) {
  // Under gravity all conditional egress probabilities are equal; on
  // the Fig. 2 matrix they differ wildly.
  const linalg::Matrix tm = BuildFig2ExampleTm();
  const double pAA = ConditionalEgressProbability(tm, 0, 0);
  const double pBA = ConditionalEgressProbability(tm, 1, 0);
  EXPECT_GT(pBA - pAA, 0.4);
  // And the gravity reconstruction has substantial error.
  const linalg::Matrix grav =
      GravityPredict(linalg::Vector{403, 109, 106},
                     linalg::Vector{403, 109, 106});
  EXPECT_GT((tm - grav).frobeniusNorm() / tm.frobeniusNorm(), 0.2);
}

TEST(Fig2Example, IsExactlyAnIcModelInstance) {
  // The example *is* an IC instance: equal fwd/rev volumes (f = 1/2),
  // uniform preference, activities 600/12/6 bytes... in connection
  // counts: A initiates 3x100 both ways = 600 total, etc.
  IcParameters p{0.5, {600.0, 12.0, 6.0}, {1.0, 1.0, 1.0}};
  test::ExpectMatrixNear(EvaluateSimplifiedIc(p), BuildFig2ExampleTm(),
                         1e-9);
}

TEST(ConditionalProbability, ErrorsOnDegenerateInputs) {
  linalg::Matrix zero(2, 2, 0.0);
  EXPECT_THROW(ConditionalEgressProbability(zero, 0, 0), ictm::Error);
  EXPECT_THROW(EgressProbability(zero, 0), ictm::Error);
  EXPECT_THROW(ConditionalEgressProbability(linalg::Matrix(2, 3), 0, 0),
               ictm::Error);
}

}  // namespace
}  // namespace ictm::core
