#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <ostream>

namespace ictm::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    ICTM_REQUIRE(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  Matrix m(diag.size(), diag.size(), 0.0);
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  if (rows.empty()) return Matrix{};
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    ICTM_REQUIRE(rows[r].size() == m.cols_, "ragged row list");
    for (std::size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::FromColumn(const Vector& v) {
  Matrix m(v.size(), 1);
  for (std::size_t i = 0; i < v.size(); ++i) m(i, 0) = v[i];
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  ICTM_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  ICTM_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

Vector Matrix::row(std::size_t r) const {
  ICTM_REQUIRE(r < rows_, "row index out of range");
  return Vector(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
                data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

Vector Matrix::col(std::size_t c) const {
  ICTM_REQUIRE(c < cols_, "column index out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::setRow(std::size_t r, const Vector& v) {
  ICTM_REQUIRE(r < rows_, "row index out of range");
  ICTM_REQUIRE(v.size() == cols_, "row length mismatch");
  std::copy(v.begin(), v.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

void Matrix::setCol(std::size_t c, const Vector& v) {
  ICTM_REQUIRE(c < cols_, "column index out of range");
  ICTM_REQUIRE(v.size() == rows_, "column length mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  ICTM_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
               "shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  ICTM_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
               "shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Matrix::frobeniusNorm() const {
  // Scaled two-pass form: avoids overflow for entries near
  // sqrt(DBL_MAX) (huge byte counts squared can exceed the double
  // range).
  const double scale = maxAbs();
  if (scale == 0.0) return 0.0;
  double acc = 0.0;
  for (double x : data_) {
    const double r = x / scale;
    acc += r * r;
  }
  return scale * std::sqrt(acc);
}

double Matrix::maxAbs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

double Matrix::sum() const {
  double acc = 0.0;
  for (double x : data_) acc += x;
  return acc;
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t rows,
                     std::size_t cols) const {
  ICTM_REQUIRE(r0 + rows <= rows_ && c0 + cols <= cols_,
               "block does not fit inside matrix");
  Matrix b(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) b(r, c) = (*this)(r0 + r, c0 + c);
  return b;
}

namespace {

// Row starts are rounded down, and row ends up, to this many doubles:
// one 64-byte line.
constexpr std::size_t kPackedLine = 8;
constexpr std::align_val_t kPackedAlign{kPackedLine * sizeof(double)};

}  // namespace

PackedUpper::PackedUpper(std::size_t n) : n_(n), offset_(n) {
  const std::size_t width = (n + kPackedLine - 1) / kPackedLine * kPackedLine;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t first = i / kPackedLine * kPackedLine;
    // size_ >= 8i >= first, so the offset never points before data().
    offset_[i] = size_ - first;
    size_ += width - first;
  }
  data_.reset(static_cast<double*>(
      ::operator new[](size_ * sizeof(double), kPackedAlign)));
  std::fill(data_.get(), data_.get() + size_, 0.0);
}

void PackedUpper::AlignedDelete::operator()(double* p) const noexcept {
  ::operator delete[](p, kPackedAlign);
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  ICTM_REQUIRE(a.cols() == b.rows(), "inner dimension mismatch in product");
  Matrix c(a.rows(), b.cols(), 0.0);
  // ikj loop order keeps the inner loop contiguous in both b and c.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

Vector operator*(const Matrix& a, const Vector& v) {
  ICTM_REQUIRE(a.cols() == v.size(), "dimension mismatch in matrix*vector");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * v[j];
    y[i] = acc;
  }
  return y;
}

bool operator==(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && a.data() == b.data();
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m(r, c) << (c + 1 < m.cols() ? ", " : "");
    }
    os << (r + 1 < m.rows() ? ";\n" : "]");
  }
  return os;
}

bool AlmostEqual(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > tol) return false;
  }
  return true;
}

bool AlmostEqual(const Vector& a, const Vector& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

double Dot(const Vector& a, const Vector& b) {
  ICTM_REQUIRE(a.size() == b.size(), "size mismatch in Dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const Vector& v) { return std::sqrt(Dot(v, v)); }

double Sum(const Vector& v) {
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc;
}

Vector Add(const Vector& a, const Vector& b) {
  ICTM_REQUIRE(a.size() == b.size(), "size mismatch in Add");
  Vector r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] + b[i];
  return r;
}

Vector Sub(const Vector& a, const Vector& b) {
  ICTM_REQUIRE(a.size() == b.size(), "size mismatch in Sub");
  Vector r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

Vector Scale(const Vector& v, double s) {
  Vector r(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) r[i] = v[i] * s;
  return r;
}

void Axpy(double alpha, const Vector& x, Vector& y) {
  ICTM_REQUIRE(x.size() == y.size(), "size mismatch in Axpy");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Vector TransposeTimes(const Matrix& a, const Vector& v) {
  ICTM_REQUIRE(a.rows() == v.size(), "dimension mismatch in TransposeTimes");
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double vi = v[i];
    if (vi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += a(i, j) * vi;
  }
  return y;
}

double MaxAbs(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

}  // namespace ictm::linalg
