// Sparse matrix primitives for the TM-estimation hot path.
//
// Routing matrices are extremely sparse — a link-path column holds the
// few links on one OD pair's shortest path(s), so densities sit around
// 2/links.  The estimation pipeline (core/estimation.hpp) therefore
// stores the link system in compressed form and runs its kernels
// (SpMV for link loads, A·diag(w)·Aᵀ for the tomogravity normal
// matrix) off the compressed arrays instead of scanning dense zeros.
//
// Two layouts are provided: CSR (row-compressed, natural for per-link
// SpMV) and CSC (column-compressed, natural for per-OD-pair kernels).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace ictm::linalg {

/// One explicit entry of a sparse matrix under assembly.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Compressed-sparse-row matrix of doubles.
///
/// Row r's entries live in [rowPtr()[r], rowPtr()[r+1]) of the
/// colIdx()/values() arrays, with column indices strictly increasing
/// inside a row.  Explicit zeros are dropped at construction.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Assembles from (row, col, value) entries in any order; duplicate
  /// positions are summed and resulting exact zeros dropped.
  static CsrMatrix FromTriplets(std::size_t rows, std::size_t cols,
                                std::vector<Triplet> entries);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nonZeros() const noexcept { return values_.size(); }

  /// SpMV y = A x off raw buffers: x has cols() elements, y gets
  /// rows() elements (overwritten).  Lets callers feed matrix views
  /// (e.g. a TrafficMatrixSeries bin) without copying into a Vector
  /// first.
  void MultiplyInto(const double* x, double* y) const;

  /// Expands to dense: the one dense view, for tests that read single
  /// entries and for dense reference pipelines.
  Matrix ToDense() const;

  const std::vector<std::size_t>& rowPtr() const noexcept { return rowPtr_; }
  const std::vector<std::size_t>& colIdx() const noexcept { return colIdx_; }
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> rowPtr_{0};
  std::vector<std::size_t> colIdx_;
  std::vector<double> values_;
};

/// Compressed-sparse-column matrix of doubles (the transpose layout of
/// CsrMatrix; same invariants per column).
class CscMatrix {
 public:
  CscMatrix() = default;

  /// Assembles from (row, col, value) entries in any order; duplicate
  /// positions are summed and resulting exact zeros dropped.
  static CscMatrix FromTriplets(std::size_t rows, std::size_t cols,
                                std::vector<Triplet> entries);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nonZeros() const noexcept { return values_.size(); }

  const std::vector<std::size_t>& colPtr() const noexcept { return colPtr_; }
  const std::vector<std::size_t>& rowIdx() const noexcept { return rowIdx_; }
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> colPtr_{0};
  std::vector<std::size_t> rowIdx_;
  std::vector<double> values_;
};

/// Weighted Gram matrix A·diag(w)·Aᵀ — the tomogravity normal matrix
/// R·diag(xp)·Rᵀ — written into a caller-owned row-major buffer of
/// a.rows()² doubles (overwritten), so per-bin callers can reuse one
/// allocation across thousands of solves.  Cost is sum over columns of
/// nnz(col)² instead of rows²·cols; columns whose weight is <= 0 are
/// skipped (matching the prior-support convention of the estimation
/// pipeline).  `w` has a.cols() elements.  Only the upper triangle
/// (row <= col) is written — the matrix is symmetric and the Cholesky
/// consumer reads nothing below the diagonal; the rest is zero-filled.
void WeightedGramInto(const CscMatrix& a, const double* w, double* out);

}  // namespace ictm::linalg
