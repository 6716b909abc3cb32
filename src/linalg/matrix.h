#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace cmmfo::linalg {

/// Dense row-major matrix of doubles.
///
/// Sized for the library's workloads (Gram matrices of a few hundred rows):
/// plain triple loops, no blocking, value semantics. Invariant:
/// data_.size() == rows_ * cols_.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Construct from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// Diagonal matrix from a vector.
  static Matrix diag(const std::vector<double>& d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Raw row pointer (row-major contiguous).
  double* rowPtr(std::size_t r) { return data_.data() + r * cols_; }
  const double* rowPtr(std::size_t r) const { return data_.data() + r * cols_; }

  std::vector<double> row(std::size_t r) const;
  std::vector<double> col(std::size_t c) const;
  void setRow(std::size_t r, const std::vector<double>& v);

  Matrix transposed() const;

  /// Become a rows x cols zero matrix, reusing the storage when it is large
  /// enough (scratch buffers refilled on every call).
  void assignZero(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Matrix product this * o.
  Matrix matmul(const Matrix& o) const;
  /// Matrix-vector product this * v.
  std::vector<double> matvec(const std::vector<double>& v) const;
  /// v^T * this (returns a vector of length cols()).
  std::vector<double> vecmat(const std::vector<double>& v) const;

  /// Sum of diagonal entries (requires square).
  double trace() const;
  /// Frobenius norm.
  double frobeniusNorm() const;
  /// Max |a_ij - b_ij|.
  double maxAbsDiff(const Matrix& o) const;

  /// Symmetrize in place: A <- (A + A^T) / 2. Requires square.
  void symmetrize();

  std::string toString(int precision = 4) const;

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace cmmfo::linalg
