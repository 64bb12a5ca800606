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
// One layout serves both: column-compressed, one column per OD pair.
// The builders (topology::BuildRouting, core::AugmentedTmSystem) emit
// the pairs in column order, write the arrays directly and hand them
// to the adopting constructor, which checks the layout's invariants.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace ictm::linalg {

/// Compressed-sparse-column matrix of doubles.
///
/// Column c's entries live in [colPtr()[c], colPtr()[c+1]) of the
/// rowIdx()/values() arrays, with row indices strictly increasing
/// inside a column and no stored value an exact zero.
class CscMatrix {
 public:
  CscMatrix() = default;

  /// Adopts compressed arrays.  Throws ictm::Error unless colPtr has
  /// cols + 1 non-decreasing entries from 0 to rowIdx.size() ==
  /// values.size(), every column's row indices are strictly increasing
  /// and below `rows`, and no value is an exact zero.
  CscMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> colPtr, std::vector<std::size_t> rowIdx,
            std::vector<double> values);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t nonZeros() const noexcept { return values_.size(); }

  /// SpMV y = A x off raw buffers: x has cols() elements, y gets
  /// rows() elements (overwritten).  y is zeroed, then the columns are
  /// scattered in ascending order, so each y[r] sums its terms in
  /// ascending column order starting from +0.0.  Lets callers feed
  /// matrix views (e.g. a TrafficMatrixSeries bin) without copying
  /// into a Vector first.
  void MultiplyInto(const double* x, double* y) const;

  /// Expands to dense: the one dense view, for tests that read single
  /// entries and for dense reference pipelines.
  Matrix ToDense() const;

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

/// The former row-compressed name, kept only so e2ebench/harness.cpp
/// compiles unchanged until ROADMAP item 5 re-anchors the benchmark.
using CsrMatrix = CscMatrix;

/// Weighted Gram matrix A·diag(w)·Aᵀ — the tomogravity normal matrix
/// R·diag(xp)·Rᵀ — written into a caller-owned packed upper triangle
/// of dimension a.rows() (overwritten, padding zeroed), so per-bin
/// callers can reuse one allocation across thousands of solves.  Cost
/// is sum over columns of nnz(col)² instead of rows²·cols; columns
/// whose weight is <= 0 are skipped (matching the prior-support
/// convention of the estimation pipeline).  `w` has a.cols() elements.
/// The matrix is symmetric and the Cholesky consumer reads nothing
/// below the diagonal, so only the upper triangle (row <= col) is
/// computed.
void WeightedGramInto(const CscMatrix& a, const double* w, PackedUpper& out);

}  // namespace ictm::linalg
