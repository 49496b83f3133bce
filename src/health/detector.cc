#include "src/health/detector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/util/spec.h"

namespace hogsim::health {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// P(X > z) for a standard normal, via erfc (monotone decreasing in z).
double NormalUpperTail(double z) {
  return 0.5 * std::erfc(z / std::sqrt(2.0));
}

}  // namespace

double NormalUpperTailQuantile(double p) {
  if (!(p > 0) || p > 0.5) {
    throw std::invalid_argument("NormalUpperTailQuantile: p must be in (0,.5]");
  }
  double lo = 0.0, hi = 64.0;  // erfc underflows far before z=64
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (NormalUpperTail(mid) > p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

// ---- DeadlineDetector ------------------------------------------------------

void DeadlineDetector::OnHeartbeat(DaemonId id, SimTime now) {
  if (last_.size() <= id) last_.resize(id + 1, kNever);
  last_[id] = now;
}

void DeadlineDetector::Forget(DaemonId id) {
  if (id < last_.size()) last_[id] = kNever;
}

SimTime DeadlineDetector::LastHeartbeat(DaemonId id) const {
  return id < last_.size() ? last_[id] : kNever;
}

SimTime DeadlineDetector::Deadline(DaemonId id) const {
  if (id >= last_.size() || last_[id] == kNever) return kNever;
  return last_[id] + timeout_;
}

double DeadlineDetector::Suspicion(DaemonId id, SimTime now) const {
  if (id >= last_.size() || last_[id] == kNever) return 0;
  // Fraction of the fixed budget consumed: crosses 1.0 exactly when the
  // legacy rule would convict.
  return static_cast<double>(now - last_[id]) / static_cast<double>(timeout_);
}

// ---- PhiDetector -----------------------------------------------------------

PhiDetector::PhiDetector(SimDuration bootstrap_timeout,
                         PhiDetectorConfig config)
    : bootstrap_(bootstrap_timeout), config_(config) {
  if (bootstrap_ <= 0) {
    throw std::invalid_argument("phi: bootstrap timeout must be positive");
  }
  if (!(config_.threshold > 0)) {
    throw std::invalid_argument("phi: threshold must be > 0");
  }
  if (!(config_.window >= 1)) {
    throw std::invalid_argument("phi: window must be >= 1");
  }
  if (config_.min_samples < 1) {
    throw std::invalid_argument("phi: min_samples must be >= 1");
  }
  if (!(config_.sigma_floor >= 0)) {
    throw std::invalid_argument("phi: sigma_floor must be >= 0");
  }
  if (!(config_.floor > 0) || !(config_.cap >= config_.floor)) {
    throw std::invalid_argument("phi: need 0 < floor <= cap");
  }
  alpha_ = 2.0 / (config_.window + 1.0);
  // Conviction quantile: silence beyond mean + z * sigma has upper-tail
  // probability 10^-threshold under the learned normal cadence model.
  z_ = NormalUpperTailQuantile(std::pow(10.0, -config_.threshold));
}

void PhiDetector::OnHeartbeat(DaemonId id, SimTime now) {
  if (states_.size() <= id) states_.resize(id + 1);
  State& s = states_[id];
  if (s.known) {
    const double interval_s = ToSeconds(now - s.last);
    if (s.samples == 0) {
      s.mean_s = interval_s;
      // Variance prior: the spread that would put the initial adaptive
      // budget at the bootstrap timeout. Starting from zero instead
      // biases the estimate low for a full window's worth of samples —
      // and an under-read budget is the dangerous direction (false
      // convictions); the prior decays toward the true cadence spread
      // from above as evidence accumulates.
      const double prior = ToSeconds(bootstrap_) / z_;
      s.var_s2 = prior * prior;
    } else {
      const double d = interval_s - s.mean_s;
      s.mean_s += alpha_ * d;
      s.var_s2 = (1.0 - alpha_) * (s.var_s2 + alpha_ * d * d);
    }
    ++s.samples;
  }
  s.last = now;
  s.known = true;
}

void PhiDetector::Forget(DaemonId id) {
  if (id < states_.size()) states_[id] = State{};
}

SimDuration PhiDetector::SilenceBudget(const State& s) const {
  if (s.samples < config_.min_samples) return bootstrap_;
  const double sigma =
      std::max(std::sqrt(s.var_s2), config_.sigma_floor * s.mean_s);
  const SimDuration adaptive = FromSeconds(s.mean_s + z_ * sigma);
  const auto lo = static_cast<SimDuration>(config_.floor *
                                           static_cast<double>(bootstrap_));
  const auto hi = static_cast<SimDuration>(config_.cap *
                                           static_cast<double>(bootstrap_));
  return std::clamp(adaptive, std::max<SimDuration>(lo, 1), hi);
}

SimTime PhiDetector::LastHeartbeat(DaemonId id) const {
  return id < states_.size() && states_[id].known ? states_[id].last : kNever;
}

SimTime PhiDetector::Deadline(DaemonId id) const {
  if (id >= states_.size() || !states_[id].known) return kNever;
  const State& s = states_[id];
  return s.last + SilenceBudget(s);
}

double PhiDetector::Suspicion(DaemonId id, SimTime now) const {
  if (id >= states_.size() || !states_[id].known) return 0;
  const State& s = states_[id];
  const double silence_s = ToSeconds(now - s.last);
  if (silence_s <= 0) return 0;
  if (s.samples < config_.min_samples) {
    // Bootstrap: scale so suspicion crosses `threshold` exactly at the
    // fixed-timeout conviction point — monotone and comparable.
    return config_.threshold * silence_s / ToSeconds(bootstrap_);
  }
  const double sigma =
      std::max(std::sqrt(s.var_s2), config_.sigma_floor * s.mean_s);
  const double tail = NormalUpperTail((silence_s - s.mean_s) / sigma);
  // Clamp away from 0 so phi stays finite; 1e-300 maps to phi ~= 300.
  return -std::log10(std::max(tail, 1e-300));
}

double PhiDetector::MeanIntervalSeconds(DaemonId id) const {
  if (id >= states_.size() || states_[id].samples == 0) return 0;
  return states_[id].mean_s;
}

// ---- Registry --------------------------------------------------------------

std::unique_ptr<FailureDetector> CreateDetector(
    const std::string& text, SimDuration bootstrap_timeout) {
  Spec spec(text);
  std::unique_ptr<FailureDetector> detector;
  if (spec.name() == "deadline") {
    detector = std::make_unique<DeadlineDetector>(bootstrap_timeout);
  } else if (spec.name() == "phi") {
    PhiDetectorConfig config;
    config.threshold = spec.Number("threshold", config.threshold);
    config.window = spec.Number("window", config.window);
    config.min_samples = spec.Int("min_samples", config.min_samples);
    config.sigma_floor = spec.Number("sigma_floor", config.sigma_floor);
    config.floor = spec.Number("floor", config.floor);
    config.cap = spec.Number("cap", config.cap);
    detector = std::make_unique<PhiDetector>(bootstrap_timeout, config);
  } else {
    spec.FailUnknownName("detector", DetectorNames());
  }
  spec.Finish();
  return detector;
}

const std::vector<std::string>& DetectorNames() {
  static const std::vector<std::string> kNames = {"deadline", "phi"};
  return kNames;
}

}  // namespace hogsim::health
