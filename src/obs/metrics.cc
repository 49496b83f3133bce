#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/obs/json_util.h"

namespace hogsim::obs {

void Histogram::Observe(double v) {
  if (std::isnan(v)) return;
  if (v < 0) v = 0;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  ++buckets_[BucketIndex(v)];
}

double Histogram::BucketUpperBound(int i) { return std::ldexp(1.0, i); }

int Histogram::BucketIndex(double v) {
  if (v <= 1.0) return 0;
  int exp = 0;
  std::frexp(v, &exp);
  // frexp: v = m * 2^exp with m in [0.5, 1). An exact power of two 2^k
  // reports exp = k + 1 but belongs in bucket k (bounds are inclusive).
  int idx = exp;
  if (std::ldexp(1.0, exp - 1) == v) --idx;
  if (idx >= kBuckets) idx = kBuckets - 1;
  return idx;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

void MetricsRegistry::RegisterProbe(std::string_view name,
                                    std::function<double()> probe) {
  probes_[std::string(name)] = std::move(probe);
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(size());
  // Merge the four sorted maps into one lexicographically sorted list. A
  // name reused across kinds (a registry misuse) yields multiple rows
  // rather than silently dropping one.
  for (const auto& [name, c] : counters_) {
    out.push_back({name, MetricSample::Kind::kCounter,
                   static_cast<double>(c.value()), nullptr});
  }
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, MetricSample::Kind::kGauge, g.value(), nullptr});
  }
  for (const auto& [name, h] : histograms_) {
    out.push_back({name, MetricSample::Kind::kHistogram, h.mean(), &h});
  }
  for (const auto& [name, probe] : probes_) {
    out.push_back({name, MetricSample::Kind::kProbe, probe(), nullptr});
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return out;
}

namespace {

const char* KindName(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
    case MetricSample::Kind::kProbe: return "probe";
  }
  return "unknown";
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  std::ostringstream os;
  os << "{\n  \"metrics\": [";
  bool first = true;
  for (const MetricSample& sample : Snapshot()) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"name\": " << JsonEscape(sample.name) << ", \"kind\": \""
       << KindName(sample.kind) << "\"";
    if (sample.kind == MetricSample::Kind::kHistogram) {
      const Histogram& h = *sample.histogram;
      os << ", \"count\": " << h.count() << ", \"sum\": " << JsonNumber(h.sum())
         << ", \"min\": " << JsonNumber(h.min())
         << ", \"max\": " << JsonNumber(h.max())
         << ", \"mean\": " << JsonNumber(h.mean()) << ", \"buckets\": [";
      bool first_bucket = true;
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        if (h.bucket(b) == 0) continue;
        if (!first_bucket) os << ", ";
        first_bucket = false;
        os << "[" << JsonNumber(Histogram::BucketUpperBound(b)) << ", "
           << h.bucket(b) << "]";
      }
      os << "]";
    } else {
      os << ", \"value\": " << JsonNumber(sample.value);
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace hogsim::obs
