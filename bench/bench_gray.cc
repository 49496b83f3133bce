// Gray-failure bench: the detection-latency vs false-positive frontier of
// the failure-detector zoo, and the goodput value of node quarantine
// under a slow-node storm.
//
// Frontier rows: per jitter palette (max per-heartbeat delay J), a quiet
// cluster runs a 2 h steady window (every tracker declared lost is a
// false suspicion) and then loses one whole site cold (detect_all_s =
// time to declare every killed tracker). The fixed-deadline ladder
// (dl30 / dl90 / dl240) exposes its inherent trade — a deadline short
// enough to detect fast false-fires under jitter, one long enough to
// stay quiet under every palette is slow everywhere — while one
// phi-accrual config adapts its silence budget to the observed cadence:
// tight under the calm palette, wide (but still under the clean
// deadlines) under the noisy one. Gates, per palette:
//   * phi stays at zero false suspicions,
//   * no deadline point dominates phi, and
//   * phi strictly dominates at least one deadline point
//     (fp no worse, detect strictly faster).
//
// Storm rows: the same workload over a fixed slow-node storm (8 leases at
// 4x compute) with quarantine off vs on. Gate: mean goodput_per_slot_hour
// with quarantine strictly beats the run without it.
//
// All emitted metrics are deterministic per (config, seed); fast rows
// keep the full-run labels and parameters, so a --fast candidate
// compares row-for-row against the committed BENCH_gray.json.
//
//   bench_gray --fast     # CI gate (j45 palette + both storm rows)
//   bench_gray            # both palettes (the committed baseline)
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/exp/bench_main.h"
#include "src/exp/gray_run.h"

using namespace hogsim;

namespace {

struct GrayRow {
  std::string label;
  bool storm = false;
  exp::GrayDetectionConfig detection;
  exp::GrayStormConfig storm_config;
  SimDuration palette = 0;  // frontier rows: the jitter palette
  bool phi = false;         // frontier rows: the adaptive detector
};

std::vector<GrayRow> FrontierRows(SimDuration jitter, const char* tag) {
  struct Det {
    const char* name;
    const char* spec;
    SimDuration expiry;
    bool phi;
  };
  // The phi row's expiry is its bootstrap budget (and the floor/cap
  // anchor). threshold=48 (z ~= 14.5) keeps the learned budget above the
  // worst window-boundary silence the correlated jitter model produces
  // even when the variance EWMA dips through a quiet stretch, and
  // window=1024 makes those dips shallow; min_samples=48 spans several
  // 16-beat jitter windows so the adaptive handoff never happens on a
  // zero-variance intra-window history.
  const Det dets[] = {
      {"dl30", "deadline", 30 * kSecond, false},
      {"dl90", "deadline", 90 * kSecond, false},
      {"dl240", "deadline", 240 * kSecond, false},
      {"phi", "phi:threshold=48;min_samples=48;window=1024", 60 * kSecond,
       true},
  };
  std::vector<GrayRow> rows;
  for (const Det& det : dets) {
    GrayRow row;
    row.label = std::string(tag) + "-" + det.name;
    row.detection.detector = det.spec;
    row.detection.expiry = det.expiry;
    row.detection.jitter = jitter;
    row.palette = jitter;
    row.phi = det.phi;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// The full grid; --fast keeps the j45 palette and both storm rows, with
/// identical per-row parameters, so fast rows match the committed
/// baseline byte-for-byte.
std::vector<GrayRow> Rows(bool fast) {
  std::vector<GrayRow> rows = FrontierRows(45 * kSecond, "j45");
  if (!fast) {
    std::vector<GrayRow> low = FrontierRows(6 * kSecond, "j6");
    rows.insert(rows.end(), low.begin(), low.end());
  }
  for (const bool quarantine : {false, true}) {
    GrayRow row;
    row.label = quarantine ? "storm-quarantine" : "storm-bare";
    row.storm = true;
    row.storm_config.quarantine = quarantine;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  exp::BenchOptions opts = exp::ParseBenchOptions(argc, argv);
  const std::vector<GrayRow> rows = Rows(opts.fast);

  std::vector<std::string> labels;
  for (const GrayRow& row : rows) labels.push_back(row.label);

  std::printf("Gray-failure bench: %zu rows x %zu seed(s) (detector "
              "frontier + slow-node storm)\n\n",
              rows.size(), opts.seeds.size());

  exp::SweepSpec spec;
  spec.name = "gray";
  spec.configs = rows.size();
  spec.config_labels = labels;
  // The frontier rows' detector overrides --detector; the storm rows
  // take it like every other flag.
  const exp::HogRunOptions ropts = exp::HogRunOptionsFrom(opts);
  const exp::SweepResult sweep = exp::RunBenchSweep(
      opts, spec,
      [&rows, &ropts](std::size_t config, std::uint64_t seed) -> exp::Metrics {
        const GrayRow& row = rows[config];
        if (row.storm) return exp::RunGrayStorm(row.storm_config, seed, ropts);
        return exp::RunGrayDetection(row.detection, seed, ropts);
      });

  // Aggregate per row (mean over seeds; the rows are deterministic per
  // seed, so the gates below are reproducible).
  struct Agg {
    double false_suspects = 0;
    double detect_all_s = 0;
    double goodput = 0;
    double violations = 0;
    double reached = 0;
    int runs = 0;
  };
  std::vector<Agg> agg(rows.size());
  for (const exp::RunRecord& run : sweep.runs) {
    Agg& a = agg[run.config_index];
    if (rows[run.config_index].storm) {
      a.goodput += run.Metric("goodput_per_slot_hour");
      a.violations += run.Metric("audit_violations");
    } else {
      a.false_suspects += run.Metric("false_suspects");
      a.detect_all_s += run.Metric("detect_all_s");
    }
    a.reached += run.Metric("reached_target");
    ++a.runs;
  }
  for (Agg& a : agg) {
    if (a.runs > 0) {
      a.false_suspects /= a.runs;
      a.detect_all_s /= a.runs;
      a.goodput /= a.runs;
    }
  }

  int failures = 0;
  // Every run must have reached its node target; a run that never spun up
  // measured nothing.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (agg[i].reached != agg[i].runs) {
      std::printf("GRAY FAIL: %s: %g of %d runs reached the node target\n",
                  rows[i].label.c_str(), agg[i].reached, agg[i].runs);
      ++failures;
    }
  }

  // Frontier gates, per palette.
  std::map<SimDuration, std::vector<std::size_t>> palettes;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].storm) palettes[rows[i].palette].push_back(i);
  }
  for (const auto& [palette, members] : palettes) {
    const std::size_t* phi_row = nullptr;
    for (const std::size_t& i : members) {
      if (rows[i].phi) phi_row = &i;
    }
    if (phi_row == nullptr) continue;
    const Agg& phi = agg[*phi_row];
    std::printf("palette %llds: phi fp=%g detect=%gs\n",
                static_cast<long long>(palette / kSecond),
                phi.false_suspects, phi.detect_all_s);
    if (phi.false_suspects != 0) {
      std::printf("GRAY FAIL: %s: phi raised %g false suspicions\n",
                  rows[*phi_row].label.c_str(), phi.false_suspects);
      ++failures;
    }
    if (phi.detect_all_s <= 0) {
      std::printf("GRAY FAIL: %s: phi never declared the killed site\n",
                  rows[*phi_row].label.c_str());
      ++failures;
    }
    int dominated_by_phi = 0;
    for (std::size_t i : members) {
      if (rows[i].phi) continue;
      const Agg& dl = agg[i];
      std::printf("  %-10s fp=%g detect=%gs\n", rows[i].label.c_str(),
                  dl.false_suspects, dl.detect_all_s);
      // The adaptive point must strictly dominate the clean end of the
      // deadline frontier: any deadline as quiet as phi must be slower.
      if (dl.false_suspects <= phi.false_suspects &&
          dl.detect_all_s <= phi.detect_all_s) {
        std::printf("GRAY FAIL: %s dominates phi (fp %g <= %g, detect %gs "
                    "<= %gs)\n",
                    rows[i].label.c_str(), dl.false_suspects,
                    phi.false_suspects, dl.detect_all_s, phi.detect_all_s);
        ++failures;
      }
      if (phi.false_suspects <= dl.false_suspects &&
          phi.detect_all_s < dl.detect_all_s) {
        ++dominated_by_phi;
      }
    }
    if (dominated_by_phi == 0) {
      std::printf("GRAY FAIL: palette %llds: phi dominates no deadline "
                  "point\n",
                  static_cast<long long>(palette / kSecond));
      ++failures;
    }
  }

  // Storm gate: quarantine must buy goodput, and both runs audit clean.
  const std::size_t n = rows.size();
  const Agg& bare = agg[n - 2];
  const Agg& quarantined = agg[n - 1];
  std::printf("storm: goodput bare=%g quarantine=%g (violations %g / %g)\n",
              bare.goodput, quarantined.goodput, bare.violations,
              quarantined.violations);
  if (!(quarantined.goodput > bare.goodput)) {
    std::printf("GRAY FAIL: quarantine goodput %g did not beat bare %g\n",
                quarantined.goodput, bare.goodput);
    ++failures;
  }
  if (bare.violations != 0 || quarantined.violations != 0) {
    std::printf("GRAY FAIL: storm runs had audit violations (%g / %g)\n",
                bare.violations, quarantined.violations);
    ++failures;
  }

  if (failures > 0) {
    std::printf("\ngray bench FAILED: %d gate(s) broken\n", failures);
    return 1;
  }
  std::printf("\ngray bench PASSED: phi on the frontier in every palette, "
              "quarantine beat the storm\n");
  return 0;
}
