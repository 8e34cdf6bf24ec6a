#ifndef JUGGLER_MATH_NNLS_H_
#define JUGGLER_MATH_NNLS_H_

#include <vector>

#include "common/status.h"

namespace juggler::math {

/// \brief Dense row-major matrix, sized for the small fitting problems this
/// library solves (a handful of coefficients, tens of observations).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, 0.0) {}

  /// Reshapes to rows x cols, all zeros, reusing the storage when it fits.
  void Reset(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows) * cols, 0.0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  double operator()(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  /// Start of row r (its cols() values are contiguous).
  double* row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// \brief Solves the square system `a * x = b` by Gaussian elimination with
/// partial pivoting.
///
/// Returns InvalidArgument on shape mismatch and FailedPrecondition if the
/// matrix is (numerically) singular.
[[nodiscard]] Status SolveLinearSystem(const Matrix& a, const std::vector<double>& b,
                         std::vector<double>* x);

/// \brief Ordinary (unconstrained) least squares, min ||a*x - b||_2, via the
/// normal equations with a small ridge term for stability.
[[nodiscard]] Status LeastSquares(const Matrix& a, const std::vector<double>& b,
                    std::vector<double>* x);

/// \brief Non-negative least squares: min ||a*x - b||_2 subject to x >= 0.
///
/// Lawson–Hanson active-set algorithm. This is the library's substitute for
/// scipy's `curve_fit` with enforced positive bounds, which the paper uses to
/// fit its dataset-size and execution-time models (avoiding negative
/// coefficients). Ernest (NSDI'16) fits its model with NNLS as well.
[[nodiscard]] Status NonNegativeLeastSquares(const Matrix& a, const std::vector<double>& b,
                               std::vector<double>* x);

/// \brief Residual 2-norm ||a*x - b||_2 for a candidate solution.
double ResidualNorm(const Matrix& a, const std::vector<double>& x,
                    const std::vector<double>& b);

}  // namespace juggler::math

#endif  // JUGGLER_MATH_NNLS_H_
