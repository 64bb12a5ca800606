#include "linalg/sparse.hpp"

#include <algorithm>
#include <utility>

namespace ictm::linalg {

namespace {

// The layout's invariants: colPtr has cols + 1 non-decreasing entries
// from 0 to rowIdx.size() == values.size(), each column's row indices
// are strictly increasing and below `rows`, and no value is an exact
// zero.
void CheckCompressed(std::size_t rows, std::size_t cols,
                     const std::vector<std::size_t>& colPtr,
                     const std::vector<std::size_t>& rowIdx,
                     const std::vector<double>& values) {
  ICTM_REQUIRE(colPtr.size() == cols + 1,
               "compressed pointer array length mismatch");
  ICTM_REQUIRE(rowIdx.size() == values.size(),
               "compressed index and value arrays differ in length");
  ICTM_REQUIRE(colPtr.front() == 0 && colPtr.back() == rowIdx.size(),
               "compressed pointer array does not span the entries");
  for (std::size_t c = 0; c < cols; ++c) {
    ICTM_REQUIRE(colPtr[c] <= colPtr[c + 1] && colPtr[c + 1] <= rowIdx.size(),
                 "compressed pointer array is not monotone");
    for (std::size_t k = colPtr[c]; k < colPtr[c + 1]; ++k) {
      ICTM_REQUIRE(rowIdx[k] < rows, "compressed index out of range");
      ICTM_REQUIRE(k == colPtr[c] || rowIdx[k - 1] < rowIdx[k],
                   "compressed indices are not strictly increasing");
      ICTM_REQUIRE(values[k] != 0.0, "compressed value is an explicit zero");
    }
  }
}

}  // namespace

CscMatrix::CscMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> colPtr,
                     std::vector<std::size_t> rowIdx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      colPtr_(std::move(colPtr)),
      rowIdx_(std::move(rowIdx)),
      values_(std::move(values)) {
  CheckCompressed(rows_, cols_, colPtr_, rowIdx_, values_);
}

void CscMatrix::MultiplyInto(const double* x, double* y) const {
  std::fill(y, y + rows_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    const double xc = x[c];
    for (std::size_t k = colPtr_[c]; k < colPtr_[c + 1]; ++k) {
      y[rowIdx_[k]] += values_[k] * xc;
    }
  }
}

Matrix CscMatrix::ToDense() const {
  Matrix m(rows_, cols_, 0.0);
  for (std::size_t c = 0; c < cols_; ++c) {
    for (std::size_t k = colPtr_[c]; k < colPtr_[c + 1]; ++k) {
      m(rowIdx_[k], c) = values_[k];
    }
  }
  return m;
}

// ---- kernels ---------------------------------------------------------

void WeightedGramInto(const CscMatrix& a, const double* w, PackedUpper& out) {
  ICTM_REQUIRE(out.dim() == a.rows(), "Gram buffer dimension mismatch");
  std::fill(out.data(), out.data() + out.size(), 0.0);
  const auto& colPtr = a.colPtr();
  const auto& rowIdx = a.rowIdx();
  const auto& values = a.values();
  // Row indices are strictly increasing within a column, so starting
  // the inner sweep at k1 emits exactly the upper-triangle (row <=
  // col) products — half the work, and all the downstream Cholesky
  // reads.
  for (std::size_t c = 0; c < a.cols(); ++c) {
    const double wc = w[c];
    if (wc <= 0.0) continue;
    const std::size_t lo = colPtr[c];
    const std::size_t hi = colPtr[c + 1];
    for (std::size_t k1 = lo; k1 < hi; ++k1) {
      const double wv1 = wc * values[k1];
      double* row = out.row(rowIdx[k1]);
      for (std::size_t k2 = k1; k2 < hi; ++k2) {
        row[rowIdx[k2]] += wv1 * values[k2];
      }
    }
  }
}

}  // namespace ictm::linalg
