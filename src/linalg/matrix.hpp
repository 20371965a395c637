#pragma once
// Dense row-major matrix and vector types used throughout slimcodeml.
//
// These are deliberately minimal: contiguous storage, bounds-checked factory
// functions, and unchecked element access on the hot path.  All numerical
// kernels live in blas1.hpp and the kernel tables of simd.hpp so that the
// baseline-vs-optimized kernel comparison (the subject of the SlimCodeML
// paper) is isolated from the container type.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <vector>

#include "support/require.hpp"

namespace slim::linalg {

/// Dense vector of doubles. Thin wrapper over std::vector with a fixed size
/// discipline (sized at construction; resize only via assign()).
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}

  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator[](std::size_t i) noexcept { return data_[i]; }
  double operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Bounds-checked access (throws on out-of-range).
  double& at(std::size_t i) { SLIM_REQUIRE(i < size(), "vector index"); return data_[i]; }
  double at(std::size_t i) const { SLIM_REQUIRE(i < size(), "vector index"); return data_[i]; }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  std::span<double> span() noexcept { return {data_.data(), data_.size()}; }
  std::span<const double> span() const noexcept { return {data_.data(), data_.size()}; }

  void fill(double v) noexcept { for (auto& x : data_) x = v; }
  void assign(std::size_t n, double v) { data_.assign(n, v); }

  auto begin() noexcept { return data_.begin(); }
  auto end() noexcept { return data_.end(); }
  auto begin() const noexcept { return data_.begin(); }
  auto end() const noexcept { return data_.end(); }

  friend bool operator==(const Vector&, const Vector&) = default;

 private:
  std::vector<double> data_;
};

/// Non-owning view of a contiguous row block of a row-major matrix (stride
/// equals cols).  Used by the pattern-blocked likelihood engine to hand
/// panels of conditional probability vectors to the level-3 kernels without
/// copying.  The referenced storage must outlive the view.  T is double
/// (mutable view) or const double (read-only view).
template <class T>
class BasicMatrixView {
 public:
  BasicMatrixView() = default;
  BasicMatrixView(T* data, std::size_t rows, std::size_t cols) noexcept
      : data_(data), rows_(rows), cols_(cols) {}

  /// A read-only view converts implicitly from a mutable one.
  template <class U>
    requires(std::is_const_v<T> && std::is_same_v<U, std::remove_const_t<T>>)
  /* implicit */ BasicMatrixView(BasicMatrixView<U> v) noexcept
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }

  T& operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }
  T* data() const noexcept { return data_; }
  T* row(std::size_t i) const noexcept { return data_ + i * cols_; }
  std::span<T> rowSpan(std::size_t i) const noexcept {
    return {row(i), cols_};
  }
  std::span<T> span() const noexcept { return {data_, size()}; }

 private:
  T* data_ = nullptr;
  std::size_t rows_ = 0, cols_ = 0;
};

using MatrixView = BasicMatrixView<double>;
using ConstMatrixView = BasicMatrixView<const double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Identity matrix of order n.
  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
  }

  /// Square matrix with d on the diagonal and 0 elsewhere.
  static Matrix diagonal(std::span<const double> d) {
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
    return m;
  }

  /// Build from a nested initializer list; all rows must have equal length.
  static Matrix fromRows(std::initializer_list<std::initializer_list<double>> rows) {
    const std::size_t r = rows.size();
    const std::size_t c = r == 0 ? 0 : rows.begin()->size();
    Matrix m(r, c);
    std::size_t i = 0;
    for (const auto& row : rows) {
      SLIM_REQUIRE(row.size() == c, "ragged initializer");
      std::size_t j = 0;
      for (double v : row) m(i, j++) = v;
      ++i;
    }
    return m;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t i, std::size_t j) noexcept { return data_[i * cols_ + j]; }
  double operator()(std::size_t i, std::size_t j) const noexcept { return data_[i * cols_ + j]; }

  /// Bounds-checked access (throws on out-of-range).
  double& at(std::size_t i, std::size_t j) {
    SLIM_REQUIRE(i < rows_ && j < cols_, "matrix index");
    return data_[i * cols_ + j];
  }
  double at(std::size_t i, std::size_t j) const {
    SLIM_REQUIRE(i < rows_ && j < cols_, "matrix index");
    return data_[i * cols_ + j];
  }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  /// Pointer to the start of row i (row-major contiguous).
  double* row(std::size_t i) noexcept { return data_.data() + i * cols_; }
  const double* row(std::size_t i) const noexcept { return data_.data() + i * cols_; }

  std::span<double> rowSpan(std::size_t i) noexcept { return {row(i), cols_}; }
  std::span<const double> rowSpan(std::size_t i) const noexcept { return {row(i), cols_}; }

  void fill(double v) noexcept { for (auto& x : data_) x = v; }

  /// View of the whole matrix.
  MatrixView view() noexcept { return {data_.data(), rows_, cols_}; }
  ConstMatrixView view() const noexcept { return {data_.data(), rows_, cols_}; }

  /// View of rows [first, first + count); the block is contiguous because
  /// storage is row-major.
  MatrixView rowBlock(std::size_t first, std::size_t count) noexcept {
    SLIM_REQUIRE(first + count <= rows_, "rowBlock out of range");
    return {data_.data() + first * cols_, count, cols_};
  }
  ConstMatrixView rowBlock(std::size_t first, std::size_t count) const {
    SLIM_REQUIRE(first + count <= rows_, "rowBlock out of range");
    return {data_.data() + first * cols_, count, cols_};
  }

  /// Reshape to (rows, cols), reusing storage; contents are zeroed.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Out-of-place transpose.
Matrix transposed(const Matrix& a);

/// Transpose a into b (b must be pre-shaped cols x rows; no allocation).
void transposeInto(const Matrix& a, Matrix& b);

/// max_ij |a_ij - b_ij|; requires equal shapes.
double maxAbsDiff(const Matrix& a, const Matrix& b);

/// max_i |a_i - b_i|; requires equal sizes.
double maxAbsDiff(const Vector& a, const Vector& b);

/// True if every element of a is finite.
bool allFinite(const Matrix& a) noexcept;
bool allFinite(std::span<const double> a) noexcept;

}  // namespace slim::linalg
