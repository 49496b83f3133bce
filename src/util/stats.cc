#include "src/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/log.h"

namespace hogsim {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double PercentileSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void StepSeries::Record(SimTime t, double value) {
  if (!points_.empty() && t < points_.back().first) {
    HOG_LOG(kWarn, t, "stats")
        << "StepSeries::Record time went backwards (" << t << " < "
        << points_.back().first << "); clamping";
    t = points_.back().first;
  }
  if (!points_.empty() && points_.back().first == t) {
    points_.back().second = value;
    return;
  }
  // Skip redundant points so long constant stretches stay O(1).
  if (!points_.empty() && points_.back().second == value) return;
  points_.emplace_back(t, value);
}

double StepSeries::At(SimTime t) const {
  if (points_.empty() || t < points_.front().first) return 0.0;
  // Last point with time <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](SimTime v, const auto& p) { return v < p.first; });
  return std::prev(it)->second;
}

double StepSeries::AreaUnder(SimTime from, SimTime to) const {
  if (to <= from || points_.empty()) return 0.0;
  double area = 0.0;
  SimTime cursor = from;
  double value = At(from);
  auto it = std::upper_bound(
      points_.begin(), points_.end(), from,
      [](SimTime v, const auto& p) { return v < p.first; });
  for (; it != points_.end() && it->first < to; ++it) {
    area += value * ToSeconds(it->first - cursor);
    cursor = it->first;
    value = it->second;
  }
  area += value * ToSeconds(to - cursor);
  return area;
}

double StepSeries::MeanOver(SimTime from, SimTime to) const {
  if (to <= from) return At(from);
  return AreaUnder(from, to) / ToSeconds(to - from);
}

std::vector<std::pair<SimTime, double>> StepSeries::Sample(
    SimTime from, SimTime to, SimDuration step) const {
  assert(step > 0);
  std::vector<std::pair<SimTime, double>> out;
  for (SimTime t = from; t < to; t += step) out.emplace_back(t, At(t));
  out.emplace_back(to, At(to));
  return out;
}

}  // namespace hogsim
