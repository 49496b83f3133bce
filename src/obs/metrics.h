// Simulator-wide metrics registry (hog::obs).
//
// A MetricsRegistry is a flat namespace of named counters, gauges, and
// histograms plus read-on-snapshot probes. The design rule that keeps it
// off the hot path: instruments are *registered once* (a map lookup at
// construction time) and handed back as pointer-stable handles, so the
// instrumented code performs a plain add/store per event — no lookup, no
// branch, no allocation. "Disabled" observability simply means nobody ever
// calls Snapshot(); the residual cost is the increments themselves, which
// the BENCH_core gate bounds (see docs/OBSERVABILITY.md).
//
// Naming convention: `subsystem.noun.verb` for counters (events that
// happened: `grid.node.preempted`), `subsystem.noun.state` for gauges
// (current levels: `grid.nodes.running`), and a unit suffix for histograms
// (`hdfs.deadnode.detection_latency_s`). The registry itself does not
// enforce the convention; scripts and dashboards rely on it.
//
// Thread-safety: none, by design. A registry belongs to one Simulation and
// the simulator is single-threaded; parallel sweeps give every run (and
// therefore every registry) its own thread (see src/exp/sweep.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hogsim::obs {

/// Monotonic event counter. Handle semantics: obtained once from
/// MetricsRegistry::GetCounter, valid for the registry's lifetime.
class Counter {
 public:
  /// Hot-path increment: a single 64-bit add.
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level, pushed by its owner whenever the level changes
/// (e.g. running-node count). Prefer a probe when the value can be read
/// from an object that is guaranteed to outlive the registry.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-layout log2-bucketed histogram of non-negative samples (latencies
/// in seconds, queue depths, byte counts). Bucket b counts samples in
/// (2^(b-1), 2^b]; bucket 0 counts samples <= 1. No allocation after
/// construction; Observe is a handful of arithmetic ops.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0;
  }
  std::uint64_t bucket(int i) const { return buckets_[i]; }
  /// Upper bound of bucket `i` (2^i; bucket 0 covers everything <= 1).
  static double BucketUpperBound(int i);
  /// Bucket index a value lands in.
  static int BucketIndex(double v);

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
};

/// One snapshot row; see MetricsRegistry::Snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram, kProbe };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0;               ///< counter/gauge/probe value
  const Histogram* histogram = nullptr;  ///< kHistogram only
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. The returned reference is pointer-stable for the registry's
  /// lifetime — cache it at construction time, not per event.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Registers a gauge evaluated lazily at snapshot time. The callback
  /// must remain valid for the registry's lifetime, so only objects that
  /// outlive the registry may self-register probes (in this codebase:
  /// the Simulation that owns it). Re-registering a name replaces the
  /// previous probe.
  void RegisterProbe(std::string_view name, std::function<double()> probe);

  /// All instruments in deterministic (lexicographic) name order; probes
  /// are evaluated now.
  std::vector<MetricSample> Snapshot() const;

  /// Snapshot serialized as a JSON object:
  ///   {"metrics": [{"name": ..., "kind": ..., "value": ...}, ...]}
  /// Histogram rows carry count/sum/min/max/mean plus sparse non-empty
  /// buckets as [upper_bound, count] pairs. Written alongside the
  /// BENCH_*.json convention (see --metrics-out in src/exp/bench_main.h).
  std::string SnapshotJson() const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size() +
           probes_.size();
  }

 private:
  // std::map nodes never move: handles stay valid as the registry grows.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, std::function<double()>, std::less<>> probes_;
};

}  // namespace hogsim::obs
