// Lightweight statistics helpers used by metrics collection and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/util/units.h"

namespace hogsim {

/// Online mean / variance / min / max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact percentile over an already-sorted sample (linear interpolation
/// between order statistics). `q` in [0, 1]. Sort once and use this for
/// repeated p50/p95/p99 queries (the sweep aggregator's hot pattern).
double PercentileSorted(std::span<const double> sorted, double q);

/// A right-continuous step function of simulated time, e.g. "number of live
/// nodes". Used for the Fig. 5 availability traces and the Table IV
/// area-beneath-curve metric.
class StepSeries {
 public:
  /// Records that the series takes value `value` from time `t` onward.
  /// Times should be non-decreasing; equal times overwrite. An out-of-order
  /// `t` is clamped to the latest recorded time (with a warning) instead of
  /// silently corrupting the series in release builds.
  void Record(SimTime t, double value);

  /// Value at time `t` (value of the latest record at or before `t`;
  /// 0 before the first record).
  double At(SimTime t) const;

  /// Integral of the series over [from, to] in value·seconds. This is the
  /// paper's "area beneath the curve" when the series is the live-node
  /// count.
  double AreaUnder(SimTime from, SimTime to) const;

  /// Mean value over [from, to].
  double MeanOver(SimTime from, SimTime to) const;

  /// Samples the series every `step` ticks over [from, to], inclusive of
  /// both endpoints. Used to print downsampled traces.
  std::vector<std::pair<SimTime, double>> Sample(SimTime from, SimTime to,
                                                 SimDuration step) const;

  const std::vector<std::pair<SimTime, double>>& points() const {
    return points_;
  }

 private:
  std::vector<std::pair<SimTime, double>> points_;
};

}  // namespace hogsim
