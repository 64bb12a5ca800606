// Sparse matrix primitives for the TM-estimation hot path.
//
// Routing matrices are extremely sparse — a link-path column holds the
// few links on one OD pair's shortest path(s): 3.1 non-zeros on average
// at geant22, 4.0 at hierarchy:200 and 19 at grid:8x8 (where ECMP
// fans out).  The estimation pipeline (core/estimation.hpp) therefore
// stores the link system in compressed form and runs its kernels
// (SpMV for link loads, A·diag(w)·Aᵀ for the tomogravity normal
// matrix) off the compressed arrays instead of scanning dense zeros.
//
// Two layouts are provided: CSR (row-compressed, natural for per-link
// SpMV) and CSC (column-compressed, natural for per-OD-pair kernels).
// Builders write the compressed arrays directly (topology::BuildRoutingCsr,
// core::AugmentedTmSystem) and hand them to the adopting constructors,
// which check the layout's invariants.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace ictm::linalg {

/// Compressed-sparse-row matrix of doubles.
///
/// Row r's entries live in [rowPtr()[r], rowPtr()[r+1]) of the
/// colIdx()/values() arrays, with column indices strictly increasing
/// inside a row and no stored value an exact zero.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Adopts compressed arrays.  Throws ictm::Error unless rowPtr has
  /// rows + 1 non-decreasing entries from 0 to colIdx.size() ==
  /// values.size(), every row's column indices are strictly increasing
  /// and below `cols`, and no value is an exact zero.
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> rowPtr, std::vector<std::size_t> colIdx,
            std::vector<double> values);

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

  /// Adopts compressed arrays; the checks of the CsrMatrix constructor
  /// with rows and columns swapped.
  CscMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> colPtr, std::vector<std::size_t> rowIdx,
            std::vector<double> values);

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
