#include "eigenx/sym_eigen.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/require.hpp"

namespace slim::eigenx {

using linalg::Matrix;
using linalg::Vector;

namespace {

// tred2 and tql2 run EISPACK's statements on W = V^T (sym_eigen.hpp): each
// v(a, b) of the column-order code is w(b, a), and nothing else changes.

// Householder reduction of a symmetric matrix to tridiagonal form, with
// accumulation of the orthogonal transformation in w (eigenvectors end up in
// the rows of w after tql2).  This is the classic EISPACK tred2 algorithm
// (0-based formulation as in the public-domain NIST JAMA package).
void tred2(Matrix& w, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = w.rows();

  for (std::size_t j = 0; j < n; ++j) d[j] = w(j, n - 1);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
        w(i, j) = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        w(i, j) = f;
        g = e[j] + w(j, j) * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += w(j, k) * d[k];
          e[k] += w(j, k) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) w(j, k) -= f * e[k] + g * d[k];
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate transformations.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    w(i, n - 1) = w(i, i);
    w(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = w(i + 1, k) / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += w(i + 1, k) * w(j, k);
        for (std::size_t k = 0; k <= i; ++k) w(j, k) -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) w(i + 1, k) = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = w(j, n - 1);
    w(j, n - 1) = 0.0;
  }
  w(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal matrix (d, e), accumulating
// rotations into the rows of w.  EISPACK tql2 / JAMA formulation;
// eigenvalues are sorted ascending together with their vectors at the end.
void tql2(Matrix& w, std::vector<double>& d, std::vector<double>& e) {
  const std::size_t n = w.rows();
  constexpr int kMaxIter = 60;

  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();

  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    std::size_t m = l;
    while (m < n && std::fabs(e[m]) > eps * tst1) ++m;
    if (m > l) {
      int iter = 0;
      do {
        if (++iter > kMaxIter)
          throw std::runtime_error("symEigen: QL iteration failed to converge");
        // Implicit shift (Wilkinson).
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // Implicit QL sweep from m-1 down to l.
        p = d[m];
        double c = 1.0, c2 = c, c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          for (std::size_t k = 0; k < n; ++k) {
            h = w(i + 1, k);
            w(i + 1, k) = s * w(i, k) + c * h;
            w(i, k) = c * w(i, k) - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }

  // Sort ascending, carrying vectors along (selection sort: n is small).
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    double p = d[i];
    for (std::size_t j = i + 1; j < n; ++j)
      if (d[j] < p) {
        k = j;
        p = d[j];
      }
    if (k != i) {
      d[k] = d[i];
      d[i] = p;
      for (std::size_t j = 0; j < n; ++j) std::swap(w(i, j), w(k, j));
    }
  }
}

}  // namespace

SymEigenResult symEigen(const Matrix& a) {
  SLIM_REQUIRE(a.square(), "symEigen: matrix must be square");
  SLIM_REQUIRE(a.rows() > 0, "symEigen: empty matrix");
  const std::size_t n = a.rows();

  SymEigenResult r;
  // tred2/tql2 work on W = V^T in place and leave the eigenvectors in its
  // rows.  The symmetrized input is its own transpose, so it starts W.
  r.vectors = a;
  // Symmetrize from the lower triangle so callers may pass either triangle
  // filled (mirrors LAPACK's uplo='L' contract).
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) r.vectors(i, j) = r.vectors(j, i);

  std::vector<double> d(n), e(n);
  tred2(r.vectors, d, e);
  tql2(r.vectors, d, e);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      std::swap(r.vectors(i, j), r.vectors(j, i));

  r.values = Vector(n);
  for (std::size_t i = 0; i < n; ++i) r.values[i] = d[i];
  return r;
}

double eigenResidual(const Matrix& a, const SymEigenResult& r) {
  const std::size_t n = a.rows();
  double worst = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = 0.0;
      for (std::size_t k = 0; k < n; ++k) av += a(i, k) * r.vectors(k, j);
      worst = std::max(worst, std::fabs(av - r.values[j] * r.vectors(i, j)));
    }
  }
  return worst;
}

double orthogonalityError(const Matrix& x) {
  const std::size_t n = x.cols();
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < x.rows(); ++k) s += x(k, i) * x(k, j);
      worst = std::max(worst, std::fabs(s - (i == j ? 1.0 : 0.0)));
    }
  return worst;
}

}  // namespace slim::eigenx
