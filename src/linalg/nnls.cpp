#include "linalg/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/lsq.hpp"

namespace ictm::linalg {

namespace {

// Dual-feasibility tolerance on the gradient.
constexpr double kTolerance = 1e-10;

// Solves the unconstrained least-squares subproblem restricted to the
// passive set: columns of `a` indexed by `passive`.
Vector SolveOnPassiveSet(const Matrix& a, const Vector& b,
                         const std::vector<std::size_t>& passive) {
  Matrix sub(a.rows(), passive.size());
  for (std::size_t j = 0; j < passive.size(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) sub(i, j) = a(i, passive[j]);
  }
  return SolveLeastSquares(sub, b);
}

}  // namespace

NnlsResult SolveNnls(const Matrix& a, const Vector& b) {
  ICTM_REQUIRE(a.rows() == b.size(), "rhs length mismatch in NNLS");
  const std::size_t n = a.cols();
  // Outer (active-set) iteration cap: the classic bound is 3n; this
  // allows a safety factor.
  const std::size_t maxIter = 10 * n + 10;

  NnlsResult result;
  result.x.assign(n, 0.0);
  result.iterations = 0;
  result.converged = false;

  std::vector<bool> inPassive(n, false);
  std::vector<std::size_t> passive;

  // Gradient of 1/2||Ax-b||^2 is A^T(Ax - b); we track w = A^T(b - Ax).
  Vector residual = b;  // b - A*0
  while (result.iterations < maxIter) {
    ++result.iterations;
    Vector w = TransposeTimes(a, residual);

    // Pick the most positive gradient among active (zero) variables.
    std::size_t best = n;
    double bestW = kTolerance;
    for (std::size_t j = 0; j < n; ++j) {
      if (!inPassive[j] && w[j] > bestW) {
        bestW = w[j];
        best = j;
      }
    }
    if (best == n) {
      result.converged = true;  // dual feasible: done
      break;
    }
    inPassive[best] = true;
    passive.push_back(best);

    // Inner loop: solve on the passive set; move variables that go
    // non-positive back to the active set.
    while (true) {
      Vector z = SolveOnPassiveSet(a, b, passive);
      bool allPositive = true;
      for (double zj : z) {
        if (zj <= 0.0) {
          allPositive = false;
          break;
        }
      }
      if (allPositive) {
        for (std::size_t j = 0; j < passive.size(); ++j)
          result.x[passive[j]] = z[j];
        break;
      }
      // Step as far as possible along (z - x) while staying feasible.
      double alpha = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < passive.size(); ++j) {
        if (z[j] <= 0.0) {
          const double xj = result.x[passive[j]];
          const double denom = xj - z[j];
          if (denom > 0.0) alpha = std::min(alpha, xj / denom);
        }
      }
      if (!std::isfinite(alpha)) alpha = 0.0;
      for (std::size_t j = 0; j < passive.size(); ++j) {
        const std::size_t col = passive[j];
        result.x[col] += alpha * (z[j] - result.x[col]);
      }
      // Drop variables that hit (or numerically cross) zero.
      std::vector<std::size_t> kept;
      kept.reserve(passive.size());
      for (std::size_t col : passive) {
        if (result.x[col] > 1e-14) {
          kept.push_back(col);
        } else {
          result.x[col] = 0.0;
          inPassive[col] = false;
        }
      }
      passive = std::move(kept);
      if (passive.empty()) break;
    }

    residual = Sub(b, a * result.x);
  }

  result.residualNorm = Norm2(Sub(b, a * result.x));
  return result;
}

}  // namespace ictm::linalg
