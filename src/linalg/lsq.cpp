#include "linalg/lsq.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

// With GCC on x86-64 the two dense kernels below are compiled once per
// ISA level (baseline, AVX2, x86-64-v4) and the dynamic loader binds
// the widest one the CPU supports.  Every clone must write the same
// bytes, so contraction into FMA is switched off here in the source: a
// build flag would not reach builds that compile src/ with their own
// flags, and x86-64-v4 (like avx512f alone) implies FMA.  Clang, and
// GCC on other targets, build one plain copy with contraction off; so
// do ThreadSanitizer builds, because GCC instruments the ifunc
// resolver it generates and the loader runs that resolver before the
// TSan runtime is up, which crashes every binary at startup.
#if defined(__clang__)
#pragma clang fp contract(off)
#define ICTM_DENSE_KERNEL
#elif defined(__GNUC__) && defined(__x86_64__) && \
    !defined(__SANITIZE_THREAD__)
#define ICTM_DENSE_KERNEL                                           \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4"), \
                 optimize("fp-contract=off")))
#elif defined(__GNUC__)
#define ICTM_DENSE_KERNEL __attribute__((optimize("fp-contract=off")))
#else
#define ICTM_DENSE_KERNEL
#endif

namespace ictm::linalg {

namespace {

// Panel height (rows; a multiple of the rank-4 block) and column-chunk
// width of the tiled factor: a 64 x 512 tile (256 KB) stays in L2
// while earlier blocks stream past it.  Heights of 32-128 rows and
// widths of 256-1024 columns measured within noise of each other.
constexpr std::size_t kPanelRows = 64;
constexpr std::size_t kChunkCols = 512;

}  // namespace

Vector SolveLeastSquares(const Matrix& a, const Vector& b) {
  ICTM_REQUIRE(a.rows() == b.size(), "rhs length mismatch");
  if (a.rows() >= a.cols()) {
    HouseholderQR qr(a);
    if (qr.rank() == a.cols()) {
      return qr.solve(b);
    }
  }
  return SolveMinNorm(a, b);
}

double ResidualNorm(const Matrix& a, const Vector& x, const Vector& b) {
  return Norm2(Sub(a * x, b));
}

Matrix CholeskyUpper(const Matrix& a) {
  ICTM_REQUIRE(a.rows() == a.cols(), "Cholesky of a non-square matrix");
  const std::size_t n = a.rows();
  Matrix u(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < i; ++k) acc -= u(k, i) * u(k, j);
      if (i == j) {
        ICTM_REQUIRE(acc > 0.0,
                     "matrix is not positive definite in Cholesky");
        u(i, i) = std::sqrt(acc);
      } else {
        u(i, j) = acc / u(i, i);
      }
    }
  }
  return u;
}

ICTM_DENSE_KERNEL
void CholeskyFactorInPlace(double* m, std::size_t n) {
  // Right-looking rank-4 factor, tiled by row panels with delayed
  // updates.  The untiled loop streams the whole trailing matrix past
  // every block of four pivots (11 MB at 1186 rows).  Here a panel's
  // rows first receive every earlier block's update one column chunk
  // at a time, so the chunk's tile stays in cache while the finished
  // block rows stream past; then the rank-4 loop runs on the panel's
  // rows alone.  Every element still sees the same updates, with the
  // same expressions, in the same ascending-block order, so the factor
  // is bit-for-bit the untiled one.  The inner loops are branch-free
  // axpys over contiguous rows, which the compiler vectorises.
  for (std::size_t p0 = 0; p0 < n; p0 += kPanelRows) {
    const std::size_t p1 = std::min(p0 + kPanelRows, n);
    // Delayed updates from every finished block, ascending, chunk by
    // chunk.  Chunks are independent of each other.
    for (std::size_t c0 = p0; c0 < n; c0 += kChunkCols) {
      const std::size_t c1 = std::min(c0 + kChunkCols, n);
      const std::size_t rowEnd = std::min(p1, c1);
      for (std::size_t k = 0; k < p0; k += 4) {
        const double* __restrict u0 = m + k * n;
        const double* __restrict u1 = m + (k + 1) * n;
        const double* __restrict u2 = m + (k + 2) * n;
        const double* __restrict u3 = m + (k + 3) * n;
        for (std::size_t i = p0; i < rowEnd; ++i) {
          const double a = u0[i], b = u1[i], c = u2[i], e = u3[i];
          double* __restrict ui = m + i * n;
          for (std::size_t j = std::max(i, c0); j < c1; ++j) {
            ui[j] -= a * u0[j] + b * u1[j] + c * u2[j] + e * u3[j];
          }
        }
      }
    }

    // The untiled rank-4 loop, its trailing update cut off at p1.
    std::size_t k = p0;
    for (; k + 3 < n && k < p1; k += 4) {
      for (std::size_t kk = k; kk < k + 4; ++kk) {
        double* __restrict ukRow = m + kk * n;
        for (std::size_t p = k; p < kk; ++p) {
          const double* __restrict up = m + p * n;
          const double c = up[kk];
          for (std::size_t j = kk; j < n; ++j) ukRow[j] -= c * up[j];
        }
        ICTM_REQUIRE(ukRow[kk] > 0.0,
                     "matrix is not positive definite in Cholesky");
        const double diag = std::sqrt(ukRow[kk]);
        ukRow[kk] = diag;
        const double inv = 1.0 / diag;
        for (std::size_t j = kk + 1; j < n; ++j) ukRow[j] *= inv;
      }
      const double* __restrict u0 = m + k * n;
      const double* __restrict u1 = m + (k + 1) * n;
      const double* __restrict u2 = m + (k + 2) * n;
      const double* __restrict u3 = m + (k + 3) * n;
      for (std::size_t i = k + 4; i < p1; ++i) {
        const double a = u0[i], b = u1[i], c = u2[i], e = u3[i];
        double* __restrict ui = m + i * n;
        for (std::size_t j = i; j < n; ++j) {
          ui[j] -= a * u0[j] + b * u1[j] + c * u2[j] + e * u3[j];
        }
      }
    }
    // Remainder rows (n mod 4); only the last panel has any, and there
    // p1 == n.
    for (; k < p1; ++k) {
      double* __restrict uk = m + k * n;
      ICTM_REQUIRE(uk[k] > 0.0,
                   "matrix is not positive definite in Cholesky");
      const double ukk = std::sqrt(uk[k]);
      uk[k] = ukk;
      const double inv = 1.0 / ukk;
      for (std::size_t j = k + 1; j < n; ++j) uk[j] *= inv;
      for (std::size_t i = k + 1; i < n; ++i) {
        const double uki = uk[i];
        double* __restrict ui = m + i * n;
        for (std::size_t j = i; j < n; ++j) ui[j] -= uki * uk[j];
      }
    }
  }
}

ICTM_DENSE_KERNEL
void CholeskySubstituteInPlace(const double* m, double* d,
                               std::size_t n) {
  // Forward (Uᵀ y = d) in outer-product form: after y[j] is final,
  // subtract its contribution from every later entry using row j of
  // U — contiguous and vectorisable, unlike the column-strided
  // dot-product form.  Each d[i] still accumulates its subtractions
  // in ascending-j order, so the floating-point result is identical.
  for (std::size_t j = 0; j < n; ++j) {
    const double* __restrict uj = m + j * n;
    const double yj = d[j] / uj[j];
    d[j] = yj;
    for (std::size_t i = j + 1; i < n; ++i) d[i] -= uj[i] * yj;
  }
  for (std::size_t i = n; i-- > 0;) {  // backward: U z = y
    const double* ui = m + i * n;
    double acc = d[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= ui[j] * d[j];
    d[i] = acc / ui[i];
  }
}

Vector SolveGramNnls(Matrix gram, const Vector& rhs) {
  ICTM_REQUIRE(gram.rows() == gram.cols(), "Gram matrix must be square");
  ICTM_REQUIRE(rhs.size() == gram.rows(), "rhs length mismatch");
  const std::size_t n = gram.rows();
  double maxDiag = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    maxDiag = std::max(maxDiag, gram(i, i));
  const double ridge = std::max(maxDiag, 1.0) * 1e-12;
  for (std::size_t i = 0; i < n; ++i) gram(i, i) += ridge;

  const Matrix u = CholeskyUpper(gram);
  const Vector b = ForwardSubstituteTranspose(u, rhs);

  // Fast path: back-substitute U x = b and accept when feasible.
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= u(ii, j) * x[j];
    x[ii] = acc / u(ii, ii);
  }
  for (double xi : x) {
    if (xi < 0.0) return SolveNnls(u, b).x;
  }
  return x;
}

Vector ForwardSubstituteTranspose(const Matrix& u, const Vector& b) {
  ICTM_REQUIRE(u.rows() == u.cols(), "triangular matrix must be square");
  ICTM_REQUIRE(b.size() == u.rows(), "rhs length mismatch");
  const std::size_t n = u.rows();
  Vector y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= u(k, i) * y[k];
    ICTM_REQUIRE(u(i, i) != 0.0, "singular triangular matrix");
    y[i] = acc / u(i, i);
  }
  return y;
}

}  // namespace ictm::linalg
