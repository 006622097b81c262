#include "viz/binning.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace zv {

namespace {

struct BinAgg {
  double sum = 0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    sum += v;
    ++count;
    if (v < min) min = v;
    if (v > max) max = v;
  }

  double Finalize(sql::AggFunc f) const {
    switch (f) {
      case sql::AggFunc::kSum:
        return sum;
      case sql::AggFunc::kAvg:
        return count ? sum / static_cast<double>(count) : 0;
      case sql::AggFunc::kCount:
        return static_cast<double>(count);
      case sql::AggFunc::kMin:
        return count ? min : 0;
      case sql::AggFunc::kMax:
        return count ? max : 0;
      case sql::AggFunc::kNone:
        return sum;
    }
    return sum;
  }
};

}  // namespace

namespace {

/// Linear-interpolated quantile of a sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

}  // namespace

Visualization BoxPlotSummarize(const Visualization& raw) {
  // Group the raw y points by x value (ascending x).
  std::map<Value, std::vector<double>> groups;
  const auto& ys = raw.ys();
  for (size_t i = 0; i < raw.xs.size() && i < ys.size(); ++i) {
    groups[raw.xs[i]].push_back(ys[i]);
  }
  const double iqr_mult = raw.spec.param > 0 ? raw.spec.param : 1.5;

  Visualization out = raw;
  out.xs.clear();
  out.series = {{"whisker_lo", {}}, {"q1", {}},     {"median", {}},
                {"q3", {}},         {"whisker_hi", {}}};
  for (auto& [x, values] : groups) {
    std::sort(values.begin(), values.end());
    const double q1 = Quantile(values, 0.25);
    const double med = Quantile(values, 0.5);
    const double q3 = Quantile(values, 0.75);
    const double fence_lo = q1 - iqr_mult * (q3 - q1);
    const double fence_hi = q3 + iqr_mult * (q3 - q1);
    // Whiskers: most extreme data points within the fences.
    double lo = q1, hi = q3;
    for (double v : values) {
      if (v >= fence_lo) {
        lo = v;
        break;
      }
    }
    for (size_t i = values.size(); i-- > 0;) {
      if (values[i] <= fence_hi) {
        hi = values[i];
        break;
      }
    }
    out.xs.push_back(x);
    out.series[0].ys.push_back(lo);
    out.series[1].ys.push_back(q1);
    out.series[2].ys.push_back(med);
    out.series[3].ys.push_back(q3);
    out.series[4].ys.push_back(hi);
  }
  return out;
}

Visualization BinVisualization(const Visualization& raw) {
  if (raw.spec.x_bin <= 0) return raw;
  const double w = raw.spec.x_bin;
  const sql::AggFunc agg = raw.spec.y_agg == sql::AggFunc::kNone
                               ? sql::AggFunc::kSum
                               : raw.spec.y_agg;
  // bin lower edge -> per-series aggregate
  std::map<int64_t, std::vector<BinAgg>> bins;
  const size_t nseries = raw.series.size();
  for (size_t i = 0; i < raw.xs.size(); ++i) {
    if (!raw.xs[i].is_numeric()) continue;
    const int64_t bin = TruncateToInt64(std::floor(raw.xs[i].AsDouble() / w));
    auto [it, inserted] = bins.try_emplace(bin);
    if (inserted) it->second.resize(nseries);
    for (size_t si = 0; si < nseries; ++si) {
      if (i < raw.series[si].ys.size()) {
        it->second[si].Add(raw.series[si].ys[i]);
      }
    }
  }
  Visualization out = raw;
  out.xs.clear();
  for (auto& s : out.series) s.ys.clear();
  for (const auto& [bin, aggs] : bins) {
    out.xs.push_back(Value::Double(static_cast<double>(bin) * w));
    for (size_t si = 0; si < nseries; ++si) {
      out.series[si].ys.push_back(aggs[si].Finalize(agg));
    }
  }
  return out;
}

}  // namespace zv
