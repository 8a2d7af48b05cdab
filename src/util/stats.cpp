#include "util/stats.hpp"

#include "util/check.hpp"

namespace aam::util {

LinearFit fit_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  AAM_CHECK(xs.size() == ys.size());
  AAM_CHECK(xs.size() >= 2);
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  LinearFit fit;
  const double denom = n * sxx - sx * sx;
  AAM_CHECK_MSG(denom != 0.0, "degenerate x values in linear fit");
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;

  const double ymean = sy / n;
  double ss_res = 0, ss_tot = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.eval(xs[i]);
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - ymean) * (ys[i] - ymean);
  }
  fit.r2 = ss_tot == 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

double crossover(const LinearFit& a, const LinearFit& b) {
  // a wins where a.eval(x) < b.eval(x). Solve equality.
  const double dslope = b.slope - a.slope;
  const double dint = a.intercept - b.intercept;
  if (dslope <= 0.0) {
    // a never gains on b with growing x; a wins everywhere iff cheaper at 0.
    return dint < 0.0 ? 0.0 : -1.0;
  }
  const double x = dint / dslope;
  return x < 0.0 ? 0.0 : x;
}

}  // namespace aam::util
