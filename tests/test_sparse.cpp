// Tests for the compressed sparse-matrix kernels (linalg/sparse.hpp),
// the in-place Cholesky kernels that consume them (linalg/lsq.hpp),
// the ParallelFor fan-out (common/parallel.hpp), and the regression
// guarantee of the parallel estimation path: EstimateSeries must be
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "common/parallel.hpp"
#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "linalg/lsq.hpp"
#include "linalg/sparse.hpp"
#include "topology/routing.hpp"
#include "topology/topologies.hpp"
#include "test_util.hpp"

namespace ictm::linalg {
namespace {

// Random matrix with ~70% structural zeros, exercising empty rows and
// columns too.
Matrix RandomSparseDense(std::size_t rows, std::size_t cols,
                         stats::Rng& rng) {
  Matrix m(rows, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.3) m(r, c) = rng.uniform(-2.0, 2.0);
    }
  }
  return m;
}

// The nonzero entries of `m`, for assembling its compressed forms.
std::vector<Triplet> NonZeroTriplets(const Matrix& m) {
  std::vector<Triplet> entries;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (m(r, c) != 0.0) entries.push_back({r, c, m(r, c)});
    }
  }
  return entries;
}

TEST(CsrMatrix, SpMVMatchesDense) {
  stats::Rng rng(2);
  const Matrix dense = RandomSparseDense(9, 13, rng);
  const CsrMatrix csr =
      CsrMatrix::FromTriplets(9, 13, NonZeroTriplets(dense));
  const Vector x = test::RandomVector(13, rng);
  Vector y(9, -1.0);  // overwritten, not accumulated into
  csr.MultiplyInto(x.data(), y.data());
  test::ExpectVectorNear(y, dense * x, 1e-12);
}

TEST(CsrMatrix, TripletsAccumulateDuplicatesAndDropZeros) {
  // Duplicate positions sum; a pair cancelling to zero is dropped.
  const CsrMatrix csr = CsrMatrix::FromTriplets(
      2, 3, {{0, 1, 2.0}, {0, 1, 3.0}, {1, 2, 1.0}, {1, 2, -1.0}});
  EXPECT_EQ(csr.nonZeros(), 1u);
  const Matrix expected{{0, 5, 0}, {0, 0, 0}};
  EXPECT_TRUE(csr.ToDense() == expected);
  EXPECT_THROW(CsrMatrix::FromTriplets(2, 3, {{2, 0, 1.0}}), ictm::Error);
  EXPECT_THROW(CsrMatrix::FromTriplets(2, 3, {{0, 3, 1.0}}), ictm::Error);
}

// WeightedGramInto on the compressed `a` against the dense `expected`:
// the upper triangle must match and every strictly-lower entry must be
// zero (the kernel writes the upper triangle only).
void ExpectGramMatchesDense(const Matrix& a, const Vector& w,
                            const Matrix& expected, double tol) {
  const CscMatrix csc =
      CscMatrix::FromTriplets(a.rows(), a.cols(), NonZeroTriplets(a));
  Matrix got(a.rows(), a.rows(), -1.0);  // overwritten everywhere
  WeightedGramInto(csc, w.data(), got.data().data());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.rows(); ++c) {
      if (c >= r) {
        EXPECT_NEAR(got(r, c), expected(r, c), tol) << r << "," << c;
      } else {
        EXPECT_EQ(got(r, c), 0.0) << r << "," << c;
      }
    }
  }
}

TEST(WeightedGram, MatchesDenseTripleProduct) {
  // A diag(w) Aᵀ against the dense computation, on a routing-shaped
  // matrix (non-negative weights; zero weights must be skipped).
  stats::Rng rng(4);
  const Matrix a = RandomSparseDense(10, 25, rng);
  Vector w = test::RandomVector(25, rng, 0.0, 3.0);
  w[3] = 0.0;
  w[17] = 0.0;
  const Matrix expected = a * Matrix::Diagonal(w) * a.transposed();
  ExpectGramMatchesDense(a, w, expected, 1e-10);
}

TEST(WeightedGram, NegativeWeightsTreatedAsUnsupported) {
  // The estimation pipeline weights by a prior; entries <= 0 carry no
  // information and are skipped, exactly like the dense reference with
  // those weights zeroed.
  const Matrix a{{1, 2}, {3, 4}};
  Vector w{-1.0, 2.0};
  Vector clamped{0.0, 2.0};
  const Matrix expected =
      a * Matrix::Diagonal(clamped) * a.transposed();
  ExpectGramMatchesDense(a, w, expected, 1e-12);
}

TEST(CholeskyInPlace, MatchesTextbookCholeskyPath) {
  // The blocked in-place factor and its substitution against
  // CholeskyUpper + substitution, on sizes around the rank-4 blocking
  // boundaries (n mod 4 = 0..3).
  stats::Rng rng(5);
  for (std::size_t n : {1u, 3u, 4u, 7u, 16u, 21u}) {
    // SPD by construction: AᵀA + n·I.
    const Matrix a = test::RandomMatrix(n, n, rng);
    Matrix spd = a.transposed() * a;
    for (std::size_t i = 0; i < n; ++i) spd(i, i) += double(n);
    const Vector b = test::RandomVector(n, rng);

    const Matrix u = CholeskyUpper(spd);
    const Vector y = ForwardSubstituteTranspose(u, b);
    Vector expected(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      double acc = y[i];
      for (std::size_t j = i + 1; j < n; ++j) acc -= u(i, j) * expected[j];
      expected[i] = acc / u(i, i);
    }

    Matrix work = spd;
    Vector z = b;
    CholeskyFactorInPlace(work.data().data(), n);
    CholeskySubstituteInPlace(work.data().data(), z.data(), n);
    test::ExpectVectorNear(z, expected, 1e-9);
    // The factor itself must match too (upper triangle only).
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j)
        EXPECT_NEAR(work(i, j), u(i, j), 1e-9) << n << ":" << i << "," << j;
  }
}

TEST(CholeskyInPlace, RejectsIndefiniteMatrix) {
  Matrix m{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyFactorInPlace(m.data().data(), 2), ictm::Error);
}

}  // namespace
}  // namespace ictm::linalg

namespace ictm {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  for (std::size_t threads : {0u, 1u, 3u, 8u, 64u}) {
    std::vector<int> hits(100, 0);
    ParallelFor(std::size_t{5}, std::size_t{100}, threads,
                [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < 100; ++i) {
      EXPECT_EQ(hits[i], i >= 5 ? 1 : 0) << "index " << i;
    }
  }
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  std::atomic<int> calls{0};
  ParallelFor(std::size_t{4}, std::size_t{4}, 8,
              [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, PropagatesWorkerException) {
  EXPECT_THROW(
      ParallelFor(std::size_t{0}, std::size_t{32}, 4,
                  [&](std::size_t i) {
                    if (i == 17) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForRanges, ChunksPartitionTheRange) {
  std::vector<int> hits(64, 0);
  std::atomic<int> chunks{0};
  ParallelForRanges(std::size_t{0}, std::size_t{64}, 4,
                    [&](std::size_t lo, std::size_t hi) {
                      ++chunks;
                      EXPECT_LT(lo, hi);
                      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                    });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_LE(chunks.load(), 4);
}

}  // namespace
}  // namespace ictm

namespace ictm::core {
namespace {

struct SeriesFixture {
  topology::Graph graph = topology::MakeAbilene11();
  linalg::CsrMatrix routingCsr = topology::BuildRoutingCsr(graph);
  traffic::TrafficMatrixSeries truth;
  traffic::TrafficMatrixSeries priors;

  SeriesFixture() : truth(11, 24, 300.0), priors(11, 24, 300.0) {
    stats::Rng rng(77);
    for (std::size_t t = 0; t < truth.binCount(); ++t)
      for (std::size_t i = 0; i < 11; ++i)
        for (std::size_t j = 0; j < 11; ++j)
          truth(t, i, j) = rng.uniform(1e5, 1e7);
    priors = GravityPredictSeries(truth);
  }
};

TEST(EstimateSeriesParallel, ThreadedRunsBitIdenticalToSerial) {
  SeriesFixture fx;
  const auto serial =
      EstimateSeries(fx.routingCsr, fx.truth, fx.priors);  // threads = 1
  for (std::size_t threads : {2u, 5u, 8u, 0u}) {
    EstimationOptions opt;
    opt.threads = threads;
    const auto parallel =
        EstimateSeries(fx.routingCsr, fx.truth, fx.priors, opt);
    for (std::size_t t = 0; t < fx.truth.binCount(); ++t) {
      const double* a = serial.binData(t);
      const double* b = parallel.binData(t);
      for (std::size_t k = 0; k < 11 * 11; ++k) {
        ASSERT_EQ(a[k], b[k])
            << "threads=" << threads << " bin " << t << " entry " << k;
      }
    }
  }
}

}  // namespace
}  // namespace ictm::core
