#pragma once

// The §5.3 performance-model fit: least squares and the crossover of two
// linear cost models.

#include <vector>

namespace aam::util {

/// Ordinary least squares fit of y = slope*x + intercept.
/// This is the §5.3 performance-model fit: t(N) = A·N + B.
struct LinearFit {
  double slope = 0.0;       ///< A (per-element cost)
  double intercept = 0.0;   ///< B (fixed overhead)
  double r2 = 0.0;          ///< coefficient of determination

  double eval(double x) const { return slope * x + intercept; }
};

LinearFit fit_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys);

/// Crossover point between two linear cost models: smallest x >= 0 where
/// `a` becomes cheaper than `b`; returns a negative value if `a` never wins.
double crossover(const LinearFit& a, const LinearFit& b);

}  // namespace aam::util
