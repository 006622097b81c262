/// \file common.h
/// \brief Shared helpers of the zenvisage benchmark: order statistics and
/// the metric record printed at the end of a run. Timing and hashing use
/// the library's own helpers (common/clock.h, common/hash.h).

#ifndef ZVBENCH_COMMON_H_
#define ZVBENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace zvbench {

using zv::MsSince;
using zv::SteadyNow;

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics (the "type 7" estimator); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// One reported metric: name, value and unit, plus the sample count behind
/// it (0 when the value is not a statistic over samples).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  /// Per-layer metrics: the end-to-end metric and workload it should move.
  std::string feeds;
};

}  // namespace zvbench

#endif  // ZVBENCH_COMMON_H_
