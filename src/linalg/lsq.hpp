// Least-squares solvers layered on QR/SVD, plus the Cholesky and NNLS
// helpers used throughout the model-fitting and TM-estimation code:
// CholeskyUpper for the small dense fits, and the allocation-free
// in-place factor and substitution that TmBinSolver runs per bin.
#pragma once

#include "linalg/matrix.hpp"

namespace ictm::linalg {

/// Solves min_x ||a x - b||_2 for full-column-rank `a` via Householder
/// QR.  Falls back to the SVD minimum-norm solution when `a` is rank
/// deficient.
Vector SolveLeastSquares(const Matrix& a, const Vector& b);

/// Residual 2-norm ||a x - b||_2.
double ResidualNorm(const Matrix& a, const Vector& x, const Vector& b);

/// Upper Cholesky factor U (U^T U = a) of a symmetric positive-definite
/// matrix; throws when a is not (numerically) positive definite.
/// Used to reduce Gram-matrix NNLS subproblems to small dense solves.
Matrix CholeskyUpper(const Matrix& a);

/// Solves U^T y = b by forward substitution for upper-triangular U.
Vector ForwardSubstituteTranspose(const Matrix& u, const Vector& b);

/// Solves min_{x>=0} x^T G x - 2 x^T rhs for a symmetric
/// positive-semidefinite Gram matrix G (consumed by value; a tiny
/// relative ridge is added for numerical safety) via NNLS on its
/// Cholesky factor.  The unconstrained solution is tried first: when
/// it is already non-negative (the common case), the NNLS active-set
/// loop is skipped.  Shared by the stable-fP and general-IC fitters.
Vector SolveGramNnls(Matrix gram, const Vector& rhs);

/// Factors the upper triangle of a symmetric positive-definite
/// row-major n x n buffer in place (Uᵀ U = m; nothing below the
/// diagonal is read or written).  Right-looking rank-4 blocks, tiled
/// into 64-row panels with delayed updates so the working set stays in
/// cache.  On x86-64 (GCC) the function is compiled per ISA level
/// (baseline, AVX2, x86-64-v4) and the loader binds the widest the CPU
/// has; contraction into FMA is off in every clone, so the factor's
/// bytes do not depend on the CPU.  Throws when `m` is not numerically
/// positive definite.
void CholeskyFactorInPlace(double* m, std::size_t n);

/// Substitution against a factor produced by CholeskyFactorInPlace:
/// overwrites `d` with the solution of (Uᵀ U) z = d.  Cloned per ISA
/// level like the factor, with the same CPU-independent bytes.
void CholeskySubstituteInPlace(const double* m, double* d, std::size_t n);

}  // namespace ictm::linalg
