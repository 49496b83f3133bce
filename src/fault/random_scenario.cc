#include "src/fault/random_scenario.h"

#include <algorithm>
#include <string>

#include "src/util/rng.h"

namespace hogsim::fault {

namespace {

// Operand ranges are quantized (whole seconds, two-decimal fractions) so
// FormatScenario round-trips the generated scenario exactly.
SimDuration Seconds(Rng& rng, int lo, int hi) {
  return rng.UniformInt(lo, hi) * kSecond;
}

double Fraction(Rng& rng, int lo_pct, int hi_pct) {
  return static_cast<double>(rng.UniformInt(lo_pct, hi_pct)) / 100.0;
}

constexpr int kActions = 8;
constexpr int kSites = 5;
constexpr SimDuration kHorizon = 40 * kMinute;

}  // namespace

Scenario RandomScenario(std::uint64_t seed, RandomScenarioOptions options) {
  Rng rng(0x5C3A0C0DULL ^ seed);
  Scenario out;
  out.name = "random-" + std::to_string(seed);

  int blackouts_left = 2;
  for (int i = 0; i < kActions; ++i) {
    TimedAction timed;
    timed.at = Seconds(rng, 30, static_cast<int>(kHorizon / kSecond));
    timed.line = i + 1;
    Action& a = timed.action;
    a.site = static_cast<int>(rng.UniformInt(0, kSites - 1));

    // Gray palette first (opt-in): a separate roll keeps the classic
    // draw sequence — and thus every pre-existing seed's scenario —
    // byte-identical when options.gray is off.
    if (options.gray) {
      const int gray_roll = static_cast<int>(rng.UniformInt(0, 99));
      if (gray_roll < 32) {
        switch (gray_roll % 4) {
          case 0:
            a.kind = ActionKind::kSlowNode;
            a.node = static_cast<int>(rng.UniformInt(0, 47));
            a.value = static_cast<double>(rng.UniformInt(15, 40)) / 10.0;
            a.duration = Seconds(rng, 120, 600);
            break;
          case 1:
            a.kind = ActionKind::kSlowSite;
            a.value = static_cast<double>(rng.UniformInt(15, 40)) / 10.0;
            a.duration = Seconds(rng, 120, 600);
            break;
          case 2:
            a.kind = ActionKind::kDelayHeartbeats;
            a.jitter = Seconds(rng, 10, 60);
            a.duration = Seconds(rng, 120, 600);
            break;
          default:
            a.kind = ActionKind::kStallDisk;
            a.node = static_cast<int>(rng.UniformInt(0, 47));
            a.duration = Seconds(rng, 30, 120);
            break;
        }
        out.actions.push_back(timed);
        continue;
      }
    }

    int roll = static_cast<int>(rng.UniformInt(0, 99));
    // Master blackouts are rationed to two per scenario: an exhausted
    // roll becomes a preemption, the paper's bread-and-butter fault.
    if (roll >= 93 && blackouts_left <= 0) roll = 20;

    if (roll < 20) {
      a.kind = ActionKind::kPreemptSite;
      a.value = Fraction(rng, 10, 50);
    } else if (roll < 40) {
      a.kind = ActionKind::kPreemptNodes;
      a.value = static_cast<double>(rng.UniformInt(1, 8));
    } else if (roll < 55) {
      a.kind = ActionKind::kZombify;
      a.value = static_cast<double>(rng.UniformInt(1, 4));
    } else if (roll < 65) {
      a.kind = ActionKind::kFreezeAcquisition;
      a.duration = Seconds(rng, 60, 480);
    } else if (roll < 75) {
      a.kind = ActionKind::kThrottleAcquisition;
      a.value = static_cast<double>(rng.UniformInt(15, 40)) / 10.0;
    } else if (roll < 85) {
      a.kind = ActionKind::kDegradeUplink;
      a.value = static_cast<double>(rng.UniformInt(2, 6));
      a.duration = Seconds(rng, 60, 480);
    } else if (roll < 93) {
      a.kind = ActionKind::kPartition;
      a.site_b = static_cast<int>(rng.UniformInt(0, kSites - 2));
      if (a.site_b >= a.site) ++a.site_b;
      a.duration = Seconds(rng, 60, 300);
    } else {
      a.kind = roll < 97 ? ActionKind::kNamenodeBlackout
                         : ActionKind::kJobtrackerBlackout;
      a.site = kAllSites;
      a.duration = Seconds(rng, 30, 90);
      --blackouts_left;
    }
    out.actions.push_back(timed);
  }

  // Draw-order index breaks time ties, keeping the sort deterministic.
  std::sort(out.actions.begin(), out.actions.end(),
            [](const TimedAction& lhs, const TimedAction& rhs) {
              return lhs.at != rhs.at ? lhs.at < rhs.at
                                      : lhs.line < rhs.line;
            });
  for (std::size_t i = 0; i < out.actions.size(); ++i) {
    out.actions[i].line = static_cast<int>(i) + 1;
  }
  return out;
}

}  // namespace hogsim::fault
