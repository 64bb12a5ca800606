// Tests for the compressed sparse-matrix kernels (linalg/sparse.hpp),
// the in-place Cholesky kernels that consume them (linalg/lsq.hpp) and
// the byte equality of the tiled factor with the untiled oracle,
// the ParallelFor fan-out (common/parallel.hpp), and the regression
// guarantee of the parallel estimation path: EstimateSeries must be
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"
#include "core/estimation.hpp"
#include "core/gravity.hpp"
#include "core/ic_model.hpp"
#include "core/synthesis.hpp"
#include "linalg/lsq.hpp"
#include "linalg/sparse.hpp"
#include "topology/registry.hpp"
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
std::vector<test::Triplet> NonZeroTriplets(const Matrix& m) {
  std::vector<test::Triplet> entries;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (m(r, c) != 0.0) entries.push_back({r, c, m(r, c)});
    }
  }
  return entries;
}

TEST(CscMatrix, SpMVMatchesDense) {
  stats::Rng rng(2);
  const Matrix dense = RandomSparseDense(9, 13, rng);
  const CscMatrix csc =
      test::CscFromTriplets(9, 13, NonZeroTriplets(dense));
  const Vector x = test::RandomVector(13, rng);
  Vector y(9, -1.0);  // overwritten, not accumulated into
  csc.MultiplyInto(x.data(), y.data());
  test::ExpectVectorNear(y, dense * x, 1e-12);
}

TEST(CscMatrix, SpMVBitIdenticalToRowOrderGather) {
  // The column scatter adds each y[r]'s terms in ascending column order
  // from +0.0, exactly as the retired row-compressed gather did, so
  // link loads keep their bits.  Routing matrices with and without
  // ECMP fractions (grid:8x8 splits), x spanning twelve decades plus
  // signed zeros.
  for (const char* spec : {"geant22", "hierarchy:200", "grid:8x8"}) {
    const topology::Graph g = topology::MakeTopology(spec, 1);
    const std::size_t n2 = g.nodeCount() * g.nodeCount();
    const CscMatrix routing = topology::BuildRouting(g);
    stats::Rng rng(29);
    std::vector<double> x(n2);
    for (std::size_t c = 0; c < n2; ++c) {
      const double u = rng.uniform(0.0, 1.0);
      x[c] = u < 0.05 ? 0.0
             : u < 0.10 ? -0.0
                        : 1e6 * std::pow(10.0, rng.uniform(-6.0, 6.0));
    }
    const std::vector<double> want = test::RowOrderGather(
        routing.rows(), test::ReferenceRoutingTriplets(g), x);
    std::vector<double> got(routing.rows(), -1.0);
    routing.MultiplyInto(x.data(), got.data());
    EXPECT_TRUE(test::SameBytes(got, want)) << spec;
  }
}

TEST(CscMatrix, TripletsAccumulateDuplicatesAndDropZeros) {
  // Duplicate positions sum; a pair cancelling to zero is dropped.
  const CscMatrix csc = test::CscFromTriplets(
      2, 3, {{0, 1, 2.0}, {0, 1, 3.0}, {1, 2, 1.0}, {1, 2, -1.0}});
  EXPECT_EQ(csc.nonZeros(), 1u);
  const Matrix expected{{0, 5, 0}, {0, 0, 0}};
  EXPECT_TRUE(csc.ToDense() == expected);
  EXPECT_THROW(test::CscFromTriplets(2, 3, {{2, 0, 1.0}}), ictm::Error);
  EXPECT_THROW(test::CscFromTriplets(2, 3, {{0, 3, 1.0}}), ictm::Error);
}

TEST(CscMatrix, AdoptingConstructorChecksInvariants) {
  // [[0, 7], [5, 0], [0, 9]] adopted as is.
  const CscMatrix csc(3, 2, {0, 1, 3}, {1, 0, 2}, {5.0, 7.0, 9.0});
  EXPECT_EQ(csc.nonZeros(), 3u);
  const Matrix expected{{0, 7}, {5, 0}, {0, 9}};
  EXPECT_TRUE(csc.ToDense() == expected);
  EXPECT_NO_THROW(CscMatrix(4, 0, {0}, {}, {}));
  // Pointer array: wrong length, not from 0, not to nnz, not monotone.
  EXPECT_THROW(CscMatrix(3, 2, {0, 3}, {1, 0, 2}, {5, 7, 9}), ictm::Error);
  EXPECT_THROW(CscMatrix(3, 2, {1, 1, 3}, {1, 0, 2}, {5, 7, 9}), ictm::Error);
  EXPECT_THROW(CscMatrix(3, 2, {0, 1, 2}, {1, 0, 2}, {5, 7, 9}), ictm::Error);
  EXPECT_THROW(CscMatrix(3, 2, {0, 4, 3}, {1, 0, 2}, {5, 7, 9}), ictm::Error);
  // Index arrays: length mismatch, out of range, out of order, repeated.
  EXPECT_THROW(CscMatrix(3, 2, {0, 1, 3}, {1, 0, 2}, {5, 7}), ictm::Error);
  EXPECT_THROW(CscMatrix(3, 2, {0, 1, 3}, {1, 0, 3}, {5, 7, 9}), ictm::Error);
  EXPECT_THROW(CscMatrix(3, 2, {0, 1, 3}, {1, 2, 0}, {5, 7, 9}), ictm::Error);
  EXPECT_THROW(CscMatrix(3, 2, {0, 1, 3}, {1, 2, 2}, {5, 7, 9}), ictm::Error);
  // A stored exact zero.
  EXPECT_THROW(CscMatrix(3, 2, {0, 1, 3}, {1, 0, 2}, {5, 0, 9}), ictm::Error);
}

// WeightedGramInto on the compressed `a` against the dense `expected`:
// the upper triangle must match and every other stored entry (the
// padding of the packed rows) must be zero.
void ExpectGramMatchesDense(const Matrix& a, const Vector& w,
                            const Matrix& expected, double tol) {
  const CscMatrix csc =
      test::CscFromTriplets(a.rows(), a.cols(), NonZeroTriplets(a));
  PackedUpper got(a.rows());
  std::fill(got.data(), got.data() + got.size(), -1.0);  // all overwritten
  WeightedGramInto(csc, w.data(), got);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = r; c < a.rows(); ++c) {
      EXPECT_NEAR(got.row(r)[c], expected(r, c), tol) << r << "," << c;
      got.row(r)[c] = 0.0;
    }
  }
  EXPECT_TRUE(std::all_of(got.data(), got.data() + got.size(),
                          [](double v) { return v == 0.0; }));
}

TEST(PackedUpper, RowsStartOnCacheLinesAndHalveTheBuffer) {
  // Row i stores columns 8⌊i/8⌋ .. ⌈n/8⌉·8 − 1.
  EXPECT_EQ(PackedUpper(1).size(), 8u);
  EXPECT_EQ(PackedUpper(8).size(), 64u);
  EXPECT_EQ(PackedUpper(9).size(), 8u * 16u + 8u);
  // The hierarchy:200 normal matrix: 715,152 doubles (5.72 MB) against
  // 1186² (11.25 MB) dense.
  const std::size_t n = 1186;
  const std::size_t width = 1192;  // ⌈n/8⌉·8
  const PackedUpper m(n);
  EXPECT_EQ(m.size(), 715152u);
  EXPECT_EQ(m.dim(), n);
  const double* end = m.data() + m.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double* first = m.row(i) + i / 8 * 8;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % 64, 0u) << i;
    EXPECT_GE(first, m.data()) << i;
    EXPECT_LE(m.row(i) + n, end) << i;
    // Each row's stored span ends where the next one begins.
    if (i + 1 < n) {
      EXPECT_EQ(m.row(i) + width, m.row(i + 1) + (i + 1) / 8 * 8) << i;
    }
  }
  EXPECT_EQ(m.row(n - 1) + width, end);
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
  for (std::size_t n : {1u, 3u, 4u, 7u, 16u, 21u, 64u, 65u, 129u}) {
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

    PackedUpper work = test::PackUpper(spd);
    Vector z = b;
    CholeskyFactorInPlace(work);
    CholeskySubstituteInPlace(work, z.data());
    test::ExpectVectorNear(z, expected, 1e-9);
    // The factor itself must match too (upper triangle only).
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j)
        EXPECT_NEAR(work.row(i)[j], u(i, j), 1e-9)
            << n << ":" << i << "," << j;
  }
}

// The normal matrix TmBinSolver factors: A diag(w) Aᵀ from
// WeightedGramInto plus the solver's trace-relative ridge.
PackedUpper SolverGram(const CscMatrix& a, const double* w) {
  const std::size_t rows = a.rows();
  PackedUpper m(rows);
  WeightedGramInto(a, w, m);
  double trace = 0.0;
  for (std::size_t r = 0; r < rows; ++r) trace += m.row(r)[r];
  const double ridge = std::max(trace, 1.0) * 1e-10 + 1e-30;
  for (std::size_t r = 0; r < rows; ++r) m.row(r)[r] += ridge;
  return m;
}

// Factors the packed `gram` with the library kernel and its dense copy
// with the untiled oracle, and requires every row of the two upper
// triangles to be equal byte for byte.
void ExpectFactorBytesMatchReference(PackedUpper gram) {
  const std::size_t n = gram.dim();
  Matrix want = test::UnpackUpper(gram);
  CholeskyFactorInPlace(gram);
  test::ReferenceCholeskyFactor(want.data().data(), n);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    differing += std::memcmp(gram.row(i) + i, &want(i, i),
                             (n - i) * sizeof(double)) != 0;
  }
  EXPECT_EQ(differing, 0u) << "rows of the n=" << n << " factor differ";
}

// The real normal matrix of one hierarchy:100 bin (586 rows) under the
// cold-start stable-fP prior (uniform preference) of a synthetic bin.
PackedUpper HierarchyGram() {
  const topology::Graph g = topology::MakeTopology("hierarchy:100", 0);
  const std::size_t n = g.nodeCount();
  const core::AugmentedTmSystem system(topology::BuildRouting(g), n,
                                       /*marginalConstraints=*/true);
  core::SynthesisConfig config;
  config.nodes = n;
  config.bins = 1;
  stats::Rng rng(7);
  const core::SyntheticTm tm = core::GenerateSyntheticTm(config, rng);
  const double* truth = tm.series.binData(0);
  Vector ingress(n, 0.0), egress(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ingress[i] += truth[i * n + j];
      egress[j] += truth[i * n + j];
    }
  }
  Vector activity(n), prior(n * n);
  core::StableFPKernel(0.25, Vector(n, 1.0))
      .PriorBin(ingress.data(), egress.data(), activity.data(),
                prior.data());
  return SolverGram(system.matrix(), prior.data());
}

TEST(CholeskyInPlace, FactorBytesMatchReference) {
  // Sizes around the packed layout's 8-row alignment, the rank-4
  // remainder, the 64-row panel and the 512-column chunk, up to the
  // hierarchy:200 system (1186 rows).  Weights span twelve decades, as
  // prior entries do.
  stats::Rng rng(11);
  for (std::size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u,
                        65u, 67u, 127u, 128u, 129u, 131u, 515u, 1186u}) {
    const Matrix a = RandomSparseDense(n, 2 * n, rng);
    Vector w(2 * n);
    for (double& x : w) x = std::pow(10.0, rng.uniform(-6.0, 6.0));
    const CscMatrix csc =
        test::CscFromTriplets(n, 2 * n, NonZeroTriplets(a));
    ExpectFactorBytesMatchReference(SolverGram(csc, w.data()));
  }
  PackedUpper gram = HierarchyGram();
  ASSERT_EQ(gram.dim(), 586u);
  ExpectFactorBytesMatchReference(std::move(gram));
}

TEST(CholeskyInPlace, RejectsIndefiniteMatrix) {
  PackedUpper m = test::PackUpper({{1.0, 2.0}, {2.0, 1.0}});  // eigs 3, -1
  EXPECT_THROW(CholeskyFactorInPlace(m), ictm::Error);

  // Vᵀ D V with V unit upper triangular: the pivots are D's entries, so
  // the first non-positive one is row 70, in the second 64-row panel,
  // reached only after the first panel's delayed updates.
  const std::size_t n = 80;
  stats::Rng rng(12);
  Matrix v = Matrix::Identity(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) v(i, j) = rng.uniform(-0.5, 0.5);
  Vector d = test::RandomPositiveVector(n, rng, 1.0, 2.0);
  PackedUpper spd =
      test::PackUpper(v.transposed() * Matrix::Diagonal(d) * v);
  EXPECT_NO_THROW(CholeskyFactorInPlace(spd));
  d[70] = -1.0;
  PackedUpper indefinite =
      test::PackUpper(v.transposed() * Matrix::Diagonal(d) * v);
  EXPECT_THROW(CholeskyFactorInPlace(indefinite), ictm::Error);
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
  linalg::CscMatrix routing = topology::BuildRouting(graph);
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

TEST(AugmentedTmSystem, MatchesTripletAssembly) {
  // The column copy must reproduce the triplet-assembled operator to
  // the byte, with and without the marginal rows.
  for (const char* spec : {"abilene11", "geant22", "grid:8x8",
                           "hierarchy:100"}) {
    const topology::Graph g = topology::MakeTopology(spec, 1);
    const std::size_t n = g.nodeCount();
    const linalg::CscMatrix routing = topology::BuildRouting(g);
    for (bool marginal : {true, false}) {
      const AugmentedTmSystem system(routing, n, marginal);
      const linalg::CscMatrix want =
          test::ReferenceAugmentedOperator(routing, n, marginal);
      const linalg::CscMatrix& got = system.matrix();
      EXPECT_EQ(got.rows(), want.rows()) << spec << " " << marginal;
      EXPECT_EQ(got.cols(), want.cols()) << spec << " " << marginal;
      EXPECT_EQ(system.rowCount(), want.rows()) << spec << " " << marginal;
      EXPECT_TRUE(test::SameBytes(got.colPtr(), want.colPtr()))
          << spec << " " << marginal;
      EXPECT_TRUE(test::SameBytes(got.rowIdx(), want.rowIdx()))
          << spec << " " << marginal;
      EXPECT_TRUE(test::SameBytes(got.values(), want.values()))
          << spec << " " << marginal;
    }
  }
}

TEST(EstimateSeriesParallel, ThreadedRunsBitIdenticalToSerial) {
  SeriesFixture fx;
  const auto serial =
      EstimateSeries(fx.routing, fx.truth, fx.priors);  // threads = 1
  for (std::size_t threads : {2u, 5u, 8u, 0u}) {
    EstimationOptions opt;
    opt.threads = threads;
    const auto parallel =
        EstimateSeries(fx.routing, fx.truth, fx.priors, opt);
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
