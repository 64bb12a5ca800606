// Non-negative least squares (Lawson–Hanson active-set algorithm).
//
// The IC-model fitting procedure (paper Sec. 5.1) constrains activities
// A_i(t) >= 0 and preferences P_i >= 0; each alternating step is an
// NNLS problem solved here.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace ictm::linalg {

/// Result of an NNLS solve.
struct NnlsResult {
  Vector x;              ///< solution, elementwise >= 0
  double residualNorm;   ///< ||a x - b||_2
  std::size_t iterations;
  bool converged;
};

/// Solves min_x ||a x - b||_2 subject to x >= 0 via Lawson–Hanson.
NnlsResult SolveNnls(const Matrix& a, const Vector& b);

}  // namespace ictm::linalg
