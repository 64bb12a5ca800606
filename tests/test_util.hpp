// Shared helpers for the ictm test suite.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

#include "linalg/matrix.hpp"
#include "stats/rng.hpp"
#include "traffic/tm_series.hpp"

namespace ictm::test {

/// Path of a scratch file under gtest's temp directory.  The name is
/// prefixed with the pid: parallel ctest runs each test case as its
/// own process from the same binary, so a bare name would make
/// concurrent cases collide on sockets and checkpoint directories.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/ictm-" + std::to_string(::getpid()) + "-" +
         name;
}

/// Deterministic random TM series (entries uniform in [0, 1e9),
/// binSeconds 300) — the standard trace fixture of the stream and
/// server suites.
inline traffic::TrafficMatrixSeries RandomSeries(std::size_t nodes,
                                                 std::size_t bins,
                                                 std::uint64_t seed) {
  stats::Rng rng(seed);
  traffic::TrafficMatrixSeries s(nodes, bins, 300.0);
  for (std::size_t t = 0; t < bins; ++t) {
    double* bin = s.binData(t);
    for (std::size_t k = 0; k < nodes * nodes; ++k) {
      bin[k] = rng.uniform(0.0, 1e9);
    }
  }
  return s;
}

/// Asserts two TM series are equal to the last bit — the determinism
/// contract every streaming/server surface is held to.
inline void ExpectBitIdentical(const traffic::TrafficMatrixSeries& a,
                               const traffic::TrafficMatrixSeries& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  ASSERT_EQ(a.binCount(), b.binCount());
  const std::size_t n2 = a.nodeCount() * a.nodeCount();
  for (std::size_t t = 0; t < a.binCount(); ++t) {
    const double* pa = a.binData(t);
    const double* pb = b.binData(t);
    for (std::size_t k = 0; k < n2; ++k) {
      ASSERT_EQ(pa[k], pb[k]) << "bin " << t << " element " << k;
    }
  }
}

/// Random matrix with entries uniform in [lo, hi).
inline linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                                   stats::Rng& rng, double lo = -1.0,
                                   double hi = 1.0) {
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(lo, hi);
  return m;
}

/// Random vector with entries uniform in [lo, hi).
inline linalg::Vector RandomVector(std::size_t n, stats::Rng& rng,
                                   double lo = -1.0, double hi = 1.0) {
  linalg::Vector v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Random strictly-positive vector.
inline linalg::Vector RandomPositiveVector(std::size_t n, stats::Rng& rng,
                                           double lo = 0.1,
                                           double hi = 2.0) {
  return RandomVector(n, rng, lo, hi);
}

/// Asserts two matrices agree elementwise within tol, with a readable
/// failure message.
inline void ExpectMatrixNear(const linalg::Matrix& a,
                             const linalg::Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), tol)
          << "mismatch at (" << r << ", " << c << ")";
    }
  }
}

inline void ExpectVectorNear(const linalg::Vector& a,
                             const linalg::Vector& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "mismatch at index " << i;
  }
}

/// Dense oracle of the stable-fP activity operator (paper Eq. 7): the
/// n^2 x n matrix Phi with x = Phi * A for fixed (f, P), row i*n+j
/// holding X_ij; preference is normalised internally.  The library
/// evaluates Phi in closed form (core::StableFPKernel); this explicit
/// build, with traffic::BuildMarginalOperator and
/// linalg::PseudoInverse, is what the closed forms are tested against.
inline linalg::Matrix BuildActivityOperator(double f,
                                            const linalg::Vector& preference) {
  const std::size_t n = preference.size();
  double prefSum = 0.0;
  for (double p : preference) prefSum += p;
  linalg::Matrix phi(n * n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t row = i * n + j;
      // X_ij = f * Pn_j * A_i + (1-f) * Pn_i * A_j.
      phi(row, i) += f * preference[j] / prefSum;
      phi(row, j) += (1.0 - f) * preference[i] / prefSum;
    }
  }
  return phi;
}

}  // namespace ictm::test
