#include "linalg/dense_eigen.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <numeric>

namespace ctbus::linalg {

namespace {

// Householder reduction of the symmetric matrix stored in `v` to tridiagonal
// form (diagonal `d`, subdiagonal in e[1..n-1]). When `accumulate` is true,
// `v` is overwritten with the orthogonal matrix Q such that A = Q T Q^T.
// Port of the EISPACK tred2 routine (via the public-domain JAMA package).
void Tred2(DenseMatrix* v, std::vector<double>* d_out,
           std::vector<double>* e_out, bool accumulate) {
  const int n = v->rows();
  std::vector<double>& d = *d_out;
  std::vector<double>& e = *e_out;
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (int j = 0; j < n; ++j) d[j] = v->At(n - 1, j);

  for (int i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (int k = 0; k < i; ++k) scale += std::abs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (int j = 0; j < i; ++j) {
        d[j] = v->At(i - 1, j);
        v->Set(i, j, 0.0);
        v->Set(j, i, 0.0);
      }
    } else {
      for (int k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (int j = 0; j < i; ++j) e[j] = 0.0;

      for (int j = 0; j < i; ++j) {
        f = d[j];
        v->Set(j, i, f);
        g = e[j] + v->At(j, j) * f;
        for (int k = j + 1; k <= i - 1; ++k) {
          g += v->At(k, j) * d[k];
          e[k] += v->At(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (int j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (int j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (int j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (int k = j; k <= i - 1; ++k) {
          v->MutableAt(k, j) -= (f * e[k] + g * d[k]);
        }
        d[j] = v->At(i - 1, j);
        v->Set(i, j, 0.0);
      }
    }
    d[i] = h;
  }

  if (accumulate) {
    for (int i = 0; i < n - 1; ++i) {
      v->Set(n - 1, i, v->At(i, i));
      v->Set(i, i, 1.0);
      const double h = d[i + 1];
      if (h != 0.0) {
        for (int k = 0; k <= i; ++k) d[k] = v->At(k, i + 1) / h;
        for (int j = 0; j <= i; ++j) {
          double g = 0.0;
          for (int k = 0; k <= i; ++k) g += v->At(k, i + 1) * v->At(k, j);
          for (int k = 0; k <= i; ++k) v->MutableAt(k, j) -= g * d[k];
        }
      }
      for (int k = 0; k <= i; ++k) v->Set(k, i + 1, 0.0);
    }
    for (int j = 0; j < n; ++j) {
      d[j] = v->At(n - 1, j);
      v->Set(n - 1, j, 0.0);
    }
    v->Set(n - 1, n - 1, 1.0);
  } else {
    // Without accumulation the tridiagonal diagonal sits on the (in-place
    // updated) matrix diagonal.
    for (int j = 0; j < n; ++j) d[j] = v->At(j, j);
  }
  e[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal matrix (d, e[1..n-1]).
// On exit `d` holds the eigenvalues, unsorted, and the rotations have been
// accumulated into the rows of `v` (columns become eigenvectors of the
// original matrix that produced v's initial content). The eigenvalues-only
// path is Tqlrat.
// Port of the EISPACK tql2 routine (via JAMA).
void Tql2(std::vector<double>* d_inout, std::vector<double>* e_inout,
          DenseMatrix* v) {
  assert(v != nullptr);
  std::vector<double>& d = *d_inout;
  std::vector<double>& e = *e_inout;
  const int n = static_cast<int>(d.size());
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double f = 0.0;
  double tst1 = 0.0;
  const double eps = std::ldexp(1.0, -52);
  for (int l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    int m = l;
    while (m < n) {
      if (std::abs(e[m]) <= eps * tst1) break;
      ++m;
    }
    if (m > l) {
      int iter = 0;
      do {
        ++iter;
        // 50 iterations is far beyond what a well-conditioned tridiagonal
        // problem needs; hitting it indicates corrupted input.
        assert(iter < 50 && "tql2 failed to converge");
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (int i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        p = d[m];
        double c = 1.0;
        double c2 = c;
        double c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0;
        double s2 = 0.0;
        for (int i = m - 1; i >= l; --i) {
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
          const int vn = v->rows();
          for (int k = 0; k < vn; ++k) {
            h = v->At(k, i + 1);
            v->Set(k, i + 1, s * v->At(k, i) + c * h);
            v->Set(k, i, c * v->At(k, i) - s * h);
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

// Eigenvalues of the tridiagonal matrix (d, e[1..n-1]) by the root-free
// (rational) QL iteration: Tql2's shifts and convergence test, but the
// sweep runs on the squared subdiagonal and forms no rotation, so its
// inner loop takes no square root. On exit `d` holds the eigenvalues,
// unsorted (callers sort), and `e` is destroyed.
// Port of the EISPACK tqlrat routine (Reinsch, CACM Algorithm 464, 1973),
// without its final insertion sort.
void Tqlrat(std::vector<double>* d_inout, std::vector<double>* e_inout) {
  std::vector<double>& d = *d_inout;
  std::vector<double>& e2 = *e_inout;
  const int n = static_cast<int>(d.size());
  for (int i = 1; i < n; ++i) e2[i - 1] = e2[i] * e2[i];
  e2[n - 1] = 0.0;

  double f = 0.0;
  double t = 0.0;
  double b = 0.0;  // the splitting tolerance on |e|: eps * t
  double c = 0.0;  // ... and on e^2
  const double eps = std::ldexp(1.0, -52);
  for (int l = 0; l < n; ++l) {
    double h = std::abs(d[l]) + std::sqrt(e2[l]);
    if (t <= h) {
      t = h;
      b = eps * t;
      c = b * b;
      if (c == 0.0) {
        // The tolerance underflowed: take the largest remaining row.
        for (int i = l; i < n; ++i) {
          t = std::max(t, std::abs(d[i]) + std::sqrt(e2[i]));
        }
        b = eps * t;
        c = b * b;
      }
    }
    // e2[n - 1] is 0, so the scan stops by n - 1.
    int m = l;
    while (e2[m] > c) ++m;
    if (m > l) {
      int iter = 0;
      while (true) {
        ++iter;
        // As in Tql2: far beyond what a well-conditioned tridiagonal
        // problem needs; hitting it indicates corrupted input.
        assert(iter < 50 && "tqlrat failed to converge");
        double s = std::sqrt(e2[l]);
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * s);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        d[l] = s / (p + r);
        h = g - d[l];
        for (int i = l + 1; i < n; ++i) d[i] -= h;
        f += h;

        g = d[m];
        if (g == 0.0) g = b;
        h = g;
        s = 0.0;
        for (int i = m - 1; i >= l; --i) {
          p = g * h;
          r = p + e2[i];
          e2[i + 1] = s * r;
          s = e2[i] / r;
          d[i + 1] = h + s * (h + d[i]);
          g = d[i] - e2[i] / g;
          if (g == 0.0) g = b;
          h = g * p / r;
        }
        e2[l] = s * g;
        d[l] = h;
        // The new e[l]^2 is h * e2[l]. Testing it against c as
        // |e2[l]| <= |c / h| keeps the convergence test from underflowing.
        if (h == 0.0 || std::abs(e2[l]) <= std::abs(c / h)) break;
        e2[l] *= h;
        if (e2[l] == 0.0) break;
      }
    }
    d[l] += f;
  }
}

// Permutation that sorts `values` ascending. Every eigenvalue ordering in
// this file goes through this one comparator, so TridiagonalExpQuadrature
// sums its terms in exactly the order TridiagonalEigen returns them.
std::vector<int> AscendingOrder(const std::vector<double>& values) {
  std::vector<int> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return values[a] < values[b]; });
  return order;
}

// Sorts eigenvalues ascending, permuting eigenvector columns to match.
void SortAscending(std::vector<double>* values, DenseMatrix* vectors) {
  const int n = static_cast<int>(values->size());
  const std::vector<int> order = AscendingOrder(*values);
  std::vector<double> sorted_values(n);
  for (int j = 0; j < n; ++j) sorted_values[j] = (*values)[order[j]];
  if (vectors != nullptr && vectors->rows() > 0) {
    DenseMatrix sorted(vectors->rows(), vectors->cols());
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < vectors->rows(); ++i) {
        sorted.Set(i, j, vectors->At(i, order[j]));
      }
    }
    *vectors = std::move(sorted);
  }
  *values = std::move(sorted_values);
}

// Loads the tridiagonal (diag, off) into Tql2's and Tqlrat's input layout:
// the subdiagonal goes in e[1..n-1], ahead of their internal shift.
void LoadTridiagonal(const std::vector<double>& diag,
                     const std::vector<double>& off, std::vector<double>* d,
                     std::vector<double>* e) {
  const int n = static_cast<int>(diag.size());
  assert(static_cast<int>(off.size()) == (n > 0 ? n - 1 : 0));
  *d = diag;
  e->assign(n, 0.0);
  for (int i = 1; i < n; ++i) (*e)[i] = off[i - 1];
}

}  // namespace

SymmetricEigenResult SymmetricEigen(const DenseMatrix& a,
                                    bool compute_vectors) {
  assert(a.rows() == a.cols());
  SymmetricEigenResult result;
  const int n = a.rows();
  if (n == 0) return result;
  DenseMatrix v = a;
  std::vector<double> d;
  std::vector<double> e;
  Tred2(&v, &d, &e, compute_vectors);
  if (compute_vectors) {
    Tql2(&d, &e, &v);
    result.eigenvectors = std::move(v);
  } else {
    Tqlrat(&d, &e);
  }
  result.eigenvalues = std::move(d);
  SortAscending(&result.eigenvalues,
                compute_vectors ? &result.eigenvectors : nullptr);
  return result;
}

std::vector<double> SymmetricEigenvalues(const DenseMatrix& a) {
  return SymmetricEigen(a, /*compute_vectors=*/false).eigenvalues;
}

SymmetricEigenResult TridiagonalEigen(const std::vector<double>& diag,
                                      const std::vector<double>& off,
                                      bool compute_vectors) {
  const int n = static_cast<int>(diag.size());
  SymmetricEigenResult result;
  if (n == 0) return result;
  std::vector<double> d;
  std::vector<double> e;
  LoadTridiagonal(diag, off, &d, &e);
  if (compute_vectors) {
    DenseMatrix v = DenseMatrix::Identity(n);
    Tql2(&d, &e, &v);
    result.eigenvectors = std::move(v);
  } else {
    Tqlrat(&d, &e);
  }
  result.eigenvalues = std::move(d);
  SortAscending(&result.eigenvalues,
                compute_vectors ? &result.eigenvectors : nullptr);
  return result;
}

double TridiagonalExpQuadrature(const std::vector<double>& diag,
                                const std::vector<double>& off) {
  const int n = static_cast<int>(diag.size());
  if (n == 0) return 0.0;
  std::vector<double> d;
  std::vector<double> e;
  LoadTridiagonal(diag, off, &d, &e);
  // Row 0 of the identity: Tql2 rotates each eigenvector row on its own
  // (the rotation coefficients depend only on d and e), so this 1 x n
  // matrix ends up holding exactly row 0 of TridiagonalEigen's Z.
  DenseMatrix z0(1, n);
  z0.Set(0, 0, 1.0);
  Tql2(&d, &e, &z0);
  double quad = 0.0;
  for (const int j : AscendingOrder(d)) {
    quad += std::exp(d[j]) * z0.At(0, j) * z0.At(0, j);
  }
  return quad;
}

}  // namespace ctbus::linalg
