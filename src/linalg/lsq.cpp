#include "linalg/lsq.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace ictm::linalg {

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

void CholeskyFactorInPlace(double* m, std::size_t n) {
  // Factors the upper triangle in place (Uᵀ U = m) in right-looking
  // form: the inner update — row i minus a multiple of row k, both
  // contiguous — is a branch-free axpy the compiler vectorises,
  // unlike the serial reductions of the textbook dot-product form.
  // Rank-4 blocking fuses four pivot sweeps of the bandwidth-bound
  // trailing submatrix into one pass.
  std::size_t k = 0;
  for (; k + 3 < n; k += 4) {
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
    for (std::size_t i = k + 4; i < n; ++i) {
      const double a = u0[i], b = u1[i], c = u2[i], e = u3[i];
      double* __restrict ui = m + i * n;
      for (std::size_t j = i; j < n; ++j) {
        ui[j] -= a * u0[j] + b * u1[j] + c * u2[j] + e * u3[j];
      }
    }
  }
  for (; k < n; ++k) {  // remainder rows (n mod 4)
    double* __restrict uk = m + k * n;
    ICTM_REQUIRE(uk[k] > 0.0, "matrix is not positive definite in Cholesky");
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
