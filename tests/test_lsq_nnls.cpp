// Tests for least-squares solvers, Cholesky helpers, NNLS and the
// simplex normalisation.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/lsq.hpp"
#include "linalg/nnls.hpp"
#include "linalg/simplex.hpp"
#include "test_util.hpp"

namespace ictm::linalg {
namespace {

TEST(LeastSquares, ExactOnConsistentSystem) {
  stats::Rng rng(1);
  const Matrix a = test::RandomMatrix(10, 4, rng);
  const Vector xTrue = test::RandomVector(4, rng);
  test::ExpectVectorNear(SolveLeastSquares(a, a * xTrue), xTrue, 1e-9);
}

TEST(LeastSquares, FallsBackToMinNormWhenRankDeficient) {
  Matrix a(4, 3);
  stats::Rng rng(2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = rng.uniform();
    a(i, 1) = 3.0 * a(i, 0);  // dependent column
    a(i, 2) = rng.uniform();
  }
  const Vector b = test::RandomVector(4, rng);
  const Vector x = SolveLeastSquares(a, b);
  // Residual must satisfy the normal equations (orthogonality).
  const Vector grad = TransposeTimes(a, Sub(a * x, b));
  EXPECT_LT(MaxAbs(grad), 1e-8);
}

TEST(Cholesky, FactorReconstructs) {
  stats::Rng rng(5);
  const Matrix m = test::RandomMatrix(5, 5, rng);
  const Matrix spd = m.transposed() * m + Matrix::Identity(5);
  const Matrix u = CholeskyUpper(spd);
  test::ExpectMatrixNear(u.transposed() * u, spd, 1e-10);
  // Upper triangular: below-diagonal entries are zero.
  for (std::size_t i = 1; i < 5; ++i)
    for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(u(i, j), 0.0);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  EXPECT_THROW(CholeskyUpper(Matrix{{1, 2}, {2, 1}}), ictm::Error);
}

TEST(Cholesky, ForwardSubstituteSolvesTransposedSystem) {
  stats::Rng rng(6);
  const Matrix m = test::RandomMatrix(4, 4, rng);
  const Matrix spd = m.transposed() * m + Matrix::Identity(4);
  const Matrix u = CholeskyUpper(spd);
  const Vector b = test::RandomVector(4, rng);
  const Vector y = ForwardSubstituteTranspose(u, b);
  test::ExpectVectorNear(u.transposed() * y, b, 1e-10);
}

TEST(ResidualNorm, MatchesDirectComputation) {
  const Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Vector x{1, 2};
  const Vector b{1, 2, 4};
  EXPECT_NEAR(ResidualNorm(a, x, b), 1.0, 1e-12);
}

// ---- NNLS --------------------------------------------------------------

TEST(Nnls, UnconstrainedOptimumWhenPositive) {
  const Matrix a{{1, 0}, {0, 1}};
  const Vector b{2, 3};
  const NnlsResult r = SolveNnls(a, b);
  EXPECT_TRUE(r.converged);
  test::ExpectVectorNear(r.x, {2, 3}, 1e-10);
  EXPECT_NEAR(r.residualNorm, 0.0, 1e-10);
}

TEST(Nnls, ClampsNegativeComponent) {
  // Unconstrained solution of x = -1 clamps to 0.
  const Matrix a{{1.0}};
  const NnlsResult r = SolveNnls(a, {-1.0});
  EXPECT_DOUBLE_EQ(r.x[0], 0.0);
  EXPECT_NEAR(r.residualNorm, 1.0, 1e-12);
}

TEST(Nnls, LawsonHansonStyleInstance) {
  // A small instance with an active constraint at the optimum
  // (reference solution computed independently by projected gradient:
  // x = (0, 0.692934), residual 0.911842).
  const Matrix a{{0.0372, 0.2869},
                 {0.6861, 0.7071},
                 {0.6233, 0.6245},
                 {0.6344, 0.6170}};
  const Vector b{0.8587, 0.1781, 0.0747, 0.8405};
  const NnlsResult r = SolveNnls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x[0], 0.0);  // active constraint
  EXPECT_NEAR(r.x[1], 0.692934, 1e-5);
  EXPECT_NEAR(r.residualNorm, 0.911842, 1e-5);
}

class NnlsProperty : public ::testing::TestWithParam<int> {};

TEST_P(NnlsProperty, KktConditionsHold) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t m = 6 + GetParam() % 5;
  const std::size_t n = 3 + GetParam() % 4;
  const Matrix a = test::RandomMatrix(m, n, rng);
  const Vector b = test::RandomVector(m, rng);
  const NnlsResult r = SolveNnls(a, b);
  ASSERT_TRUE(r.converged);
  const Vector grad = TransposeTimes(a, Sub(a * r.x, b));
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_GE(r.x[j], 0.0);
    if (r.x[j] > 1e-10) {
      // Active variables: zero gradient.
      EXPECT_NEAR(grad[j], 0.0, 1e-7) << "j=" << j;
    } else {
      // Clamped variables: non-negative gradient (no descent into the
      // feasible region).
      EXPECT_GE(grad[j], -1e-7) << "j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, NnlsProperty,
                         ::testing::Range(100, 120));

TEST(Nnls, BeatsClampedLeastSquares) {
  // NNLS residual must never exceed the residual of clamping the
  // unconstrained solution at zero.
  stats::Rng rng(7);
  for (int rep = 0; rep < 10; ++rep) {
    const Matrix a = test::RandomMatrix(8, 4, rng);
    const Vector b = test::RandomVector(8, rng);
    const NnlsResult r = SolveNnls(a, b);
    Vector clamped = SolveLeastSquares(a, b);
    for (double& c : clamped) c = std::max(c, 0.0);
    EXPECT_LE(r.residualNorm, ResidualNorm(a, clamped, b) + 1e-9);
  }
}

// ---- Simplex normalisation ----------------------------------------------

TEST(NormalizeNonNegative, ClampsAndRescales) {
  const Vector v{-1.0, 1.0, 3.0};
  const Vector p = NormalizeNonNegative(v);
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_NEAR(p[1], 0.25, 1e-12);
  EXPECT_NEAR(p[2], 0.75, 1e-12);
}

TEST(NormalizeNonNegative, UniformFallbackWhenAllNonPositive) {
  const Vector p = NormalizeNonNegative({-1.0, -2.0});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

}  // namespace
}  // namespace ictm::linalg
