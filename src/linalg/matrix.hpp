// Dense row-major matrix and vector primitives.
//
// This is the numerical substrate for the whole library (the build
// environment has no Eigen).  It is deliberately small: dense double
// storage, value semantics, bounds-checked accessors, and the handful
// of BLAS-1/2/3 style operations the traffic-matrix algorithms need.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/error.hpp"

namespace ictm::linalg {

/// Dense vector of doubles.  A plain std::vector is used as the storage
/// type so that callers can interoperate with the standard library; the
/// free functions below provide the numerical operations.
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles with value semantics.
///
/// Sizes in this library are modest (at most a few thousand rows), so we
/// favour clarity and bounds safety over blocking/vectorisation tricks.
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a rows x cols matrix with every element set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Creates a matrix from a nested initializer list; all rows must
  /// have the same length.  Example: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Returns the n x n identity matrix.
  static Matrix Identity(std::size_t n);

  /// Returns a square matrix with `diag` on the main diagonal.
  static Matrix Diagonal(const Vector& diag);

  /// Builds a matrix whose i-th row is rows[i]; all rows must have the
  /// same length.  An empty argument yields the 0x0 matrix.
  static Matrix FromRows(const std::vector<Vector>& rows);

  /// Builds a column vector matrix (n x 1) from `v`.
  static Matrix FromColumn(const Vector& v);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  /// Total number of elements (rows()*cols()).
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Unchecked element access (row-major).
  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access; throws ictm::Error when out of range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Raw row-major storage (size rows()*cols()).
  const std::vector<double>& data() const noexcept { return data_; }
  std::vector<double>& data() noexcept { return data_; }

  /// Returns a copy of row r.
  Vector row(std::size_t r) const;
  /// Returns a copy of column c.
  Vector col(std::size_t c) const;
  /// Overwrites row r with `v` (v.size() must equal cols()).
  void setRow(std::size_t r, const Vector& v);
  /// Overwrites column c with `v` (v.size() must equal rows()).
  void setCol(std::size_t c, const Vector& v);

  /// Returns the transpose.
  Matrix transposed() const;

  /// Elementwise in-place operations.
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Frobenius norm sqrt(sum of squares).
  double frobeniusNorm() const;
  /// Largest absolute element (0 for the empty matrix).
  double maxAbs() const;
  /// Sum of all elements.
  double sum() const;

  /// Fills every element with `value`.
  void fill(double value);

  /// Extracts the contiguous submatrix of size (rows x cols) starting
  /// at (r0, c0); throws if the block does not fit.
  Matrix block(std::size_t r0, std::size_t c0, std::size_t rows,
               std::size_t cols) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// The upper triangle of a symmetric n x n matrix, packed by rows: the
/// storage of TmBinSolver's normal matrix and of its Cholesky factor,
/// about half of n² doubles.  Row i stores columns 8⌊i/8⌋ to
/// ⌈n/8⌉·8 − 1, a whole number of 64-byte lines, and the buffer is
/// 64-byte aligned, so every row starts on a cache line.  The up to
/// seven stored entries left of the diagonal and right of column n − 1
/// are padding that no kernel reads.  A row-offset table, built once
/// here, points row(i) at the row's (virtual) column 0, so the kernels
/// index a row by its column exactly as in a dense row-major matrix.
class PackedUpper {
 public:
  /// Allocates the layout of an n x n matrix, zero-filled.
  explicit PackedUpper(std::size_t n);

  /// The dimension n.
  std::size_t dim() const noexcept { return n_; }
  /// Doubles stored, padding included.
  std::size_t size() const noexcept { return size_; }
  /// The 64-byte-aligned buffer of size() doubles.
  double* data() noexcept { return data_.get(); }
  const double* data() const noexcept { return data_.get(); }

  /// Row i indexed by column: row(i)[j] is element (i, j) for
  /// i <= j < n.
  double* row(std::size_t i) noexcept { return data_.get() + offset_[i]; }
  const double* row(std::size_t i) const noexcept {
    return data_.get() + offset_[i];
  }
  /// The row-offset table (n entries): row(i) is data() +
  /// rowOffsets()[i].
  const std::size_t* rowOffsets() const noexcept { return offset_.data(); }

 private:
  struct AlignedDelete {
    void operator()(double* p) const noexcept;
  };
  std::size_t n_ = 0;
  std::size_t size_ = 0;
  std::vector<std::size_t> offset_;
  std::unique_ptr<double[], AlignedDelete> data_;
};

/// Matrix addition/subtraction; dimensions must match.
Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
/// Scalar multiplication.
Matrix operator*(Matrix m, double s);
Matrix operator*(double s, Matrix m);
/// Matrix product (inner dimensions must agree).
Matrix operator*(const Matrix& a, const Matrix& b);
/// Matrix * vector (v.size() must equal a.cols()).
Vector operator*(const Matrix& a, const Vector& v);
/// Exact elementwise equality (used by tests; prefer AlmostEqual).
bool operator==(const Matrix& a, const Matrix& b);

/// Streams a human-readable rendering (rows on separate lines).
std::ostream& operator<<(std::ostream& os, const Matrix& m);

/// True when a and b have identical shape and all elements differ by
/// at most `tol` in absolute value.
bool AlmostEqual(const Matrix& a, const Matrix& b, double tol);
bool AlmostEqual(const Vector& a, const Vector& b, double tol);

// ---- BLAS-1 style vector helpers -------------------------------------

/// Dot product; sizes must match.
double Dot(const Vector& a, const Vector& b);
/// Euclidean norm.
double Norm2(const Vector& v);
/// Sum of elements.
double Sum(const Vector& v);
/// Returns a + b elementwise.
Vector Add(const Vector& a, const Vector& b);
/// Returns a - b elementwise.
Vector Sub(const Vector& a, const Vector& b);
/// Returns s * v.
Vector Scale(const Vector& v, double s);
/// y += alpha * x (sizes must match).
void Axpy(double alpha, const Vector& x, Vector& y);
/// Transpose-product A^T * v (v.size() must equal a.rows()).
Vector TransposeTimes(const Matrix& a, const Vector& v);
/// Largest absolute element (0 for empty).
double MaxAbs(const Vector& v);

}  // namespace ictm::linalg
