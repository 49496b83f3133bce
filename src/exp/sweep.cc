#include "src/exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/obs/json_util.h"

namespace hogsim::exp {

std::string SweepSpec::Label(std::size_t config) const {
  if (config < config_labels.size()) return config_labels[config];
  return "config" + std::to_string(config);
}

double RunRecord::Metric(std::string_view name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  throw std::out_of_range("no metric \"" + std::string(name) +
                          "\" in config " + std::to_string(config_index) +
                          " (seed " + std::to_string(seed) + ")");
}

const MetricSummary& SweepResult::Summary(std::size_t config,
                                          std::string_view name) const {
  if (config < summaries.size()) {
    for (const MetricSummary& summary : summaries[config]) {
      if (summary.name == name) return summary;
    }
  }
  throw std::out_of_range("no metric \"" + std::string(name) +
                          "\" in config " + std::to_string(config) +
                          " summaries");
}

double SweepResult::Mean(std::size_t config, std::string_view name) const {
  const MetricSummary& summary = Summary(config, name);
  if (summary.stats.count() == 0) return std::nan("");
  return summary.stats.mean();
}

std::vector<std::vector<MetricSummary>> Summarize(
    const SweepSpec& spec, const std::vector<RunRecord>& runs) {
  std::vector<std::vector<MetricSummary>> summaries(spec.configs);
  const std::size_t n = spec.seeds.size();
  for (std::size_t c = 0; c < spec.configs; ++c) {
    if (n == 0) continue;
    const RunRecord& head = runs[c * n];
    const Metrics& first = head.metrics;
    // A run whose layout differs from its config's first run would drop
    // out of that config's means without a word.
    for (std::size_t s = 1; s < n; ++s) {
      const RunRecord& run = runs[c * n + s];
      std::size_t m = 0;
      while (m < first.size() && m < run.metrics.size() &&
             run.metrics[m].first == first[m].first) {
        ++m;
      }
      if (m == first.size() && m == run.metrics.size()) continue;
      const auto name = [m](const Metrics& metrics) {
        return m < metrics.size() ? "\"" + metrics[m].first + "\""
                                  : std::string("nothing");
      };
      throw std::runtime_error(
          spec.Label(c) + " seed " + std::to_string(run.seed) + ": metric " +
          std::to_string(m) + " is " + name(run.metrics) + ", but seed " +
          std::to_string(head.seed) + " has " + name(first));
    }
    for (std::size_t m = 0; m < first.size(); ++m) {
      MetricSummary summary;
      summary.name = first[m].first;
      std::vector<double> values;
      values.reserve(n);
      for (std::size_t s = 0; s < n; ++s) {
        const double value = runs[c * n + s].metrics[m].second;
        // Non-finite values mark runs where the metric was unmeasurable
        // (e.g. a deployment that never reached its node target); they
        // serialize as null per-run and are excluded from the summary so
        // they cannot poison the mean or the percentile sort.
        if (!std::isfinite(value)) continue;
        values.push_back(value);
        summary.stats.Add(value);
      }
      std::sort(values.begin(), values.end());
      summary.p50 = PercentileSorted(values, 0.50);
      summary.p95 = PercentileSorted(values, 0.95);
      summary.p99 = PercentileSorted(values, 0.99);
      if (summary.stats.count() > 1) {
        summary.ci95_halfwidth =
            1.96 * summary.stats.stddev() /
            std::sqrt(static_cast<double>(summary.stats.count()));
      }
      summaries[c].push_back(std::move(summary));
    }
  }
  return summaries;
}

SweepResult RunSweep(const SweepSpec& spec, const RunFn& fn) {
  SweepResult result;
  const std::size_t tasks = spec.configs * spec.seeds.size();
  result.runs.resize(tasks);
  for (std::size_t c = 0; c < spec.configs; ++c) {
    for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
      RunRecord& record = result.runs[c * spec.seeds.size() + s];
      record.config_index = c;
      record.seed = spec.seeds[s];
    }
  }

  unsigned threads = spec.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(tasks, 1)));

  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks) return;
      RunRecord& record = result.runs[i];
      try {
        record.metrics = fn(record.config_index, record.seed);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);

  result.summaries = Summarize(spec, result.runs);
  return result;
}

std::string ToBenchJson(const SweepSpec& spec, const SweepResult& result) {
  using obs::JsonEscape;
  using obs::JsonNumber;
  std::ostringstream os;
  os << "{\n";
  os << "  \"name\": " << JsonEscape(spec.name) << ",\n";
  os << "  \"configs\": " << spec.configs << ",\n";
  os << "  \"seeds\": [";
  for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
    if (s) os << ", ";
    os << spec.seeds[s];
  }
  os << "],\n";
  os << "  \"summaries\": [\n";
  bool first_summary = true;
  for (std::size_t c = 0; c < result.summaries.size(); ++c) {
    for (const MetricSummary& m : result.summaries[c]) {
      if (!first_summary) os << ",\n";
      first_summary = false;
      // A metric no run measured has no statistics: null, never 0.
      const auto stat = [&m](double value) {
        return m.stats.count() == 0 ? std::string("null") : JsonNumber(value);
      };
      os << "    {\"config\": " << JsonEscape(spec.Label(c))
         << ", \"metric\": " << JsonEscape(m.name)
         << ", \"count\": " << m.stats.count()
         << ", \"mean\": " << stat(m.stats.mean())
         << ", \"stddev\": " << stat(m.stats.stddev())
         << ", \"min\": " << stat(m.stats.min())
         << ", \"max\": " << stat(m.stats.max())
         << ", \"p50\": " << stat(m.p50)
         << ", \"p95\": " << stat(m.p95)
         << ", \"p99\": " << stat(m.p99)
         << ", \"ci95\": " << stat(m.ci95_halfwidth) << "}";
    }
  }
  os << "\n  ],\n";
  os << "  \"runs\": [\n";
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    const RunRecord& r = result.runs[i];
    if (i) os << ",\n";
    os << "    {\"config\": " << JsonEscape(spec.Label(r.config_index))
       << ", \"seed\": " << r.seed << ", \"metrics\": {";
    for (std::size_t m = 0; m < r.metrics.size(); ++m) {
      if (m) os << ", ";
      os << JsonEscape(r.metrics[m].first) << ": "
         << JsonNumber(r.metrics[m].second);
    }
    os << "}}";
  }
  os << "\n  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace hogsim::exp
