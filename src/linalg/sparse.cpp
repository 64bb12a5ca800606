#include "linalg/sparse.hpp"

#include <algorithm>

namespace ictm::linalg {

namespace {

// Shared assembly for both compressed layouts: sorts (major, minor)
// pairs, sums duplicates, drops exact zeros, and fills the three
// compressed arrays.  `major(t)`/`minor(t)` select which triplet field
// is the compressed dimension.
template <typename MajorFn, typename MinorFn>
void Compress(std::size_t majorCount, std::size_t majorBound,
              std::size_t minorBound, std::vector<Triplet>& entries,
              MajorFn major, MinorFn minor, std::vector<std::size_t>& ptr,
              std::vector<std::size_t>& idx, std::vector<double>& values) {
  for (const Triplet& t : entries) {
    ICTM_REQUIRE(major(t) < majorBound && minor(t) < minorBound,
                 "triplet index out of range");
  }
  std::sort(entries.begin(), entries.end(),
            [&](const Triplet& a, const Triplet& b) {
              if (major(a) != major(b)) return major(a) < major(b);
              return minor(a) < minor(b);
            });

  ptr.assign(majorCount + 1, 0);
  idx.clear();
  values.clear();
  idx.reserve(entries.size());
  values.reserve(entries.size());
  std::size_t i = 0;
  for (std::size_t m = 0; m < majorCount; ++m) {
    while (i < entries.size() && major(entries[i]) == m) {
      const std::size_t mi = minor(entries[i]);
      double acc = 0.0;
      while (i < entries.size() && major(entries[i]) == m &&
             minor(entries[i]) == mi) {
        acc += entries[i].value;
        ++i;
      }
      if (acc != 0.0) {
        idx.push_back(mi);
        values.push_back(acc);
      }
    }
    ptr[m + 1] = idx.size();
  }
}

}  // namespace

// ---- CsrMatrix -------------------------------------------------------

CsrMatrix CsrMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                  std::vector<Triplet> entries) {
  CsrMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  Compress(
      rows, rows, cols, entries, [](const Triplet& t) { return t.row; },
      [](const Triplet& t) { return t.col; }, out.rowPtr_, out.colIdx_,
      out.values_);
  return out;
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

CscMatrix CscMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                  std::vector<Triplet> entries) {
  CscMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  Compress(
      cols, cols, rows, entries, [](const Triplet& t) { return t.col; },
      [](const Triplet& t) { return t.row; }, out.colPtr_, out.rowIdx_,
      out.values_);
  return out;
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
