// Baseline comparison for the BENCH_*.json convention.
//
// A run is a deterministic function of its (config, seed), apart from its
// host.* rows (IsHostMetric). CompareBench matches each candidate run to
// the baseline run with the same (config, seed) and requires every other
// metric to be in both and equal; the compare_bench tool wraps it:
//
//   compare_bench BENCH_sched.json build/fast/BENCH_sched.json
//
// Exit status of the tool: 0 = same, 1 = a difference or no candidate
// runs, 2 = bad usage or unparsable input.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/exp/sweep.h"

namespace hogsim::exp {

/// Parsed JSON value (the subset our writers emit: objects, arrays,
/// strings, numbers, null — no booleans). `null` parses as a NaN number,
/// matching how ToBenchJson serializes non-finite metric values.
struct JsonValue {
  enum class Kind { kNull, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First value under `key` (objects only); nullptr when absent.
  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses `json` (the writer subset above). Numbers follow the shared
/// strict rule (hogsim::ParseNumber). Throws std::runtime_error on
/// malformed input — including booleans, which our writers never emit.
/// Shared by compare_bench and the obs trace/metrics round-trip tests.
JsonValue ParseJson(std::string_view json);

/// One entry of a BENCH file's "runs" array; `null` values parse as NaN.
struct BenchRun {
  std::string config;
  std::uint64_t seed = 0;
  Metrics metrics;
};

struct BenchFile {
  std::string name;
  std::vector<BenchRun> runs;
};

/// Parses a ToBenchJson document's "name" and "runs" (its summaries derive
/// from the runs). Throws std::runtime_error on malformed input or a seed
/// that is not an integer in [0, kMaxSeed].
BenchFile ParseBenchJson(std::string_view json);

/// Reads and parses `path`. Throws std::runtime_error on I/O or parse
/// failure.
BenchFile LoadBenchJson(const std::string& path);

/// A deterministic metric that differs between a candidate run and its
/// baseline run; an absent side is nullopt. An empty `metric` means the
/// baseline has no run with this (config, seed).
struct BenchDifference {
  std::string config;
  std::uint64_t seed = 0;
  std::string metric;
  std::optional<double> baseline, candidate;
};

/// A host row's per-config mean of each file's finite values (NaN: none).
struct HostMean {
  std::string config, metric;
  double baseline = 0, candidate = 0;
};

struct BenchComparison {
  std::size_t candidate_runs = 0;
  std::size_t compared_values = 0;  ///< deterministic values checked
  std::size_t untaken_runs = 0;     ///< baseline runs the candidate lacks
  std::vector<BenchDifference> differences;
  std::vector<HostMean> host;

  /// At least one candidate run, and no difference.
  bool Same() const { return candidate_runs > 0 && differences.empty(); }
};

/// Compares exactly: equal doubles, and `null` equals only `null`. A
/// metric on one side only and a candidate run the baseline lacks are
/// differences; baseline runs the candidate skipped (a --fast subset) are
/// only counted.
BenchComparison CompareBench(const BenchFile& baseline,
                             const BenchFile& candidate);

}  // namespace hogsim::exp
