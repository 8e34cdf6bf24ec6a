#include "math/nnls.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace juggler::math {

namespace {

// Computes a^T * a (restricted to the given column subset) and a^T * b.
void NormalEquations(const Matrix& a, const std::vector<double>& b,
                     const std::vector<int>& cols, Matrix* ata,
                     std::vector<double>* atb) {
  const int k = static_cast<int>(cols.size());
  ata->Reset(k, k);
  atb->assign(k, 0.0);
  for (int i = 0; i < k; ++i) {
    for (int j = i; j < k; ++j) {
      double s = 0.0;
      for (int r = 0; r < a.rows(); ++r) s += a(r, cols[i]) * a(r, cols[j]);
      (*ata)(i, j) = s;
      (*ata)(j, i) = s;
    }
    double s = 0.0;
    for (int r = 0; r < a.rows(); ++r) s += a(r, cols[i]) * b[r];
    (*atb)[i] = s;
  }
}

}  // namespace

Status SolveLinearSystem(const Matrix& a, const std::vector<double>& b,
                         std::vector<double>* x) {
  const int n = a.rows();
  if (a.cols() != n || static_cast<int>(b.size()) != n) {
    return Status::InvalidArgument("SolveLinearSystem: shape mismatch");
  }
  Matrix m = a;
  std::vector<double> rhs = b;
  x->assign(n, 0.0);

  for (int col = 0; col < n; ++col) {
    // Partial pivoting.
    int pivot = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::fabs(m(r, col)) > std::fabs(m(pivot, col))) pivot = r;
    }
    if (std::fabs(m(pivot, col)) < 1e-12) {
      return Status::FailedPrecondition("SolveLinearSystem: singular matrix");
    }
    if (pivot != col) {
      for (int c = 0; c < n; ++c) std::swap(m(pivot, c), m(col, c));
      std::swap(rhs[pivot], rhs[col]);
    }
    for (int r = col + 1; r < n; ++r) {
      const double f = m(r, col) / m(col, col);
      if (f == 0.0) continue;
      for (int c = col; c < n; ++c) m(r, c) -= f * m(col, c);
      rhs[r] -= f * rhs[col];
    }
  }
  for (int r = n - 1; r >= 0; --r) {
    double s = rhs[r];
    for (int c = r + 1; c < n; ++c) s -= m(r, c) * (*x)[c];
    (*x)[r] = s / m(r, r);
  }
  return Status::OK();
}

Status LeastSquares(const Matrix& a, const std::vector<double>& b,
                    std::vector<double>* x) {
  if (a.rows() != static_cast<int>(b.size())) {
    return Status::InvalidArgument("LeastSquares: shape mismatch");
  }
  if (a.rows() < a.cols()) {
    return Status::InvalidArgument("LeastSquares: underdetermined system");
  }
  std::vector<int> cols(a.cols());
  for (int i = 0; i < a.cols(); ++i) cols[i] = i;
  Matrix ata;
  std::vector<double> atb;
  NormalEquations(a, b, cols, &ata, &atb);
  // Tiny ridge keeps nearly-collinear designs (common with e*f features over
  // a 3x3 grid) solvable without visibly biasing the fit.
  for (int i = 0; i < ata.rows(); ++i) ata(i, i) += 1e-9 * (ata(i, i) + 1.0);
  return SolveLinearSystem(ata, atb, x);
}

Status NonNegativeLeastSquares(const Matrix& a, const std::vector<double>& b,
                               std::vector<double>* x) {
  const int n = a.cols();
  const int m = a.rows();
  if (m != static_cast<int>(b.size())) {
    return Status::InvalidArgument("NNLS: shape mismatch");
  }
  x->assign(n, 0.0);
  if (n == 0) return Status::OK();

  // Lawson–Hanson: maintain a passive set P of coefficients allowed to be
  // positive; move variables between P and the active (zero) set guided by
  // the gradient w = a^T (b - a x).
  std::vector<bool> passive(n, false);
  std::vector<double> w(n, 0.0);
  const int max_outer = 3 * n + 30;
  // Scratch reused by every iteration (each one overwrites it in full).
  std::vector<double> resid(m);
  std::vector<int> cols;
  Matrix ata;
  std::vector<double> atb, z;

  for (int outer = 0; outer < max_outer; ++outer) {
    // Gradient of 0.5*||ax-b||^2 at current x, negated.
    for (int r = 0; r < m; ++r) {
      double s = b[r];
      for (int c = 0; c < n; ++c) s -= a(r, c) * (*x)[c];
      resid[r] = s;
    }
    double wmax = -std::numeric_limits<double>::infinity();
    int tmax = -1;
    for (int c = 0; c < n; ++c) {
      double s = 0.0;
      for (int r = 0; r < m; ++r) s += a(r, c) * resid[r];
      w[c] = s;
      if (!passive[c] && s > wmax) {
        wmax = s;
        tmax = c;
      }
    }
    if (tmax < 0 || wmax <= 1e-10) break;  // KKT satisfied.
    passive[tmax] = true;

    // Inner loop: solve the unconstrained problem on P; clip negatives.
    for (int inner = 0; inner < max_outer; ++inner) {
      cols.clear();
      for (int c = 0; c < n; ++c) {
        if (passive[c]) cols.push_back(c);
      }
      NormalEquations(a, b, cols, &ata, &atb);
      for (int i = 0; i < ata.rows(); ++i) ata(i, i) += 1e-12 * (ata(i, i) + 1.0);
      Status st = SolveLinearSystem(ata, atb, &z);
      if (!st.ok()) {
        // Degenerate subset: drop the most recently added variable.
        passive[cols.back()] = false;
        continue;
      }
      bool all_positive = true;
      for (double v : z) {
        if (v <= 0.0) {
          all_positive = false;
          break;
        }
      }
      if (all_positive) {
        std::fill(x->begin(), x->end(), 0.0);
        for (size_t i = 0; i < cols.size(); ++i) (*x)[cols[i]] = z[i];
        break;
      }
      // Step from x toward z, stopping at the first coefficient hitting 0.
      double alpha = 1.0;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (z[i] <= 0.0) {
          const double xi = (*x)[cols[i]];
          const double denom = xi - z[i];
          if (denom > 0.0) alpha = std::min(alpha, xi / denom);
        }
      }
      for (size_t i = 0; i < cols.size(); ++i) {
        (*x)[cols[i]] += alpha * (z[i] - (*x)[cols[i]]);
        if ((*x)[cols[i]] <= 1e-14) {
          (*x)[cols[i]] = 0.0;
          passive[cols[i]] = false;
        }
      }
    }
  }
  return Status::OK();
}

double ResidualNorm(const Matrix& a, const std::vector<double>& x,
                    const std::vector<double>& b) {
  double ss = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    double s = -b[r];
    for (int c = 0; c < a.cols(); ++c) s += a(r, c) * x[c];
    ss += s * s;
  }
  return std::sqrt(ss);
}

}  // namespace juggler::math
