#include "linalg/sparse.hpp"

#include <algorithm>
#include <utility>

namespace ictm::linalg {

namespace {

// The invariants shared by both compressed layouts: `ptr` has
// majorCount + 1 non-decreasing entries from 0 to idx.size() ==
// values.size(), each major's minor indices are strictly increasing
// and below minorBound, and no value is an exact zero.
void CheckCompressed(std::size_t majorCount, std::size_t minorBound,
                     const std::vector<std::size_t>& ptr,
                     const std::vector<std::size_t>& idx,
                     const std::vector<double>& values) {
  ICTM_REQUIRE(ptr.size() == majorCount + 1,
               "compressed pointer array length mismatch");
  ICTM_REQUIRE(idx.size() == values.size(),
               "compressed index and value arrays differ in length");
  ICTM_REQUIRE(ptr.front() == 0 && ptr.back() == idx.size(),
               "compressed pointer array does not span the entries");
  for (std::size_t m = 0; m < majorCount; ++m) {
    ICTM_REQUIRE(ptr[m] <= ptr[m + 1] && ptr[m + 1] <= idx.size(),
                 "compressed pointer array is not monotone");
    for (std::size_t k = ptr[m]; k < ptr[m + 1]; ++k) {
      ICTM_REQUIRE(idx[k] < minorBound, "compressed index out of range");
      ICTM_REQUIRE(k == ptr[m] || idx[k - 1] < idx[k],
                   "compressed indices are not strictly increasing");
      ICTM_REQUIRE(values[k] != 0.0, "compressed value is an explicit zero");
    }
  }
}

}  // namespace

// ---- CsrMatrix -------------------------------------------------------

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> rowPtr,
                     std::vector<std::size_t> colIdx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      rowPtr_(std::move(rowPtr)),
      colIdx_(std::move(colIdx)),
      values_(std::move(values)) {
  CheckCompressed(rows_, cols_, rowPtr_, colIdx_, values_);
}

void CsrMatrix::MultiplyInto(const double* x, double* y) const {
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k) {
      acc += values_[k] * x[colIdx_[k]];
    }
    y[r] = acc;
  }
}

Matrix CsrMatrix::ToDense() const {
  Matrix m(rows_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k) {
      m(r, colIdx_[k]) = values_[k];
    }
  }
  return m;
}

// ---- CscMatrix -------------------------------------------------------

CscMatrix::CscMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> colPtr,
                     std::vector<std::size_t> rowIdx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      colPtr_(std::move(colPtr)),
      rowIdx_(std::move(rowIdx)),
      values_(std::move(values)) {
  CheckCompressed(cols_, rows_, colPtr_, rowIdx_, values_);
}

// ---- kernels ---------------------------------------------------------

void WeightedGramInto(const CscMatrix& a, const double* w, double* out) {
  const std::size_t rows = a.rows();
  std::fill(out, out + rows * rows, 0.0);
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
      double* row = out + rowIdx[k1] * rows;
      for (std::size_t k2 = k1; k2 < hi; ++k2) {
        row[rowIdx[k2]] += wv1 * values[k2];
      }
    }
  }
}

}  // namespace ictm::linalg
