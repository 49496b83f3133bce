// Availability-targeted adaptive replication (after Trua,
// arXiv:2004.05723): replace HOG's flat replication-factor-10 with the
// smallest per-block RF that meets a user-set availability target, given
// where the block's replicas actually sit.
//
// Model. Grid preemption rates are strongly site-dependent and predictable
// (the OSG study, arXiv:1807.06639), so the controller learns a per-site
// preemption hazard online: every datanode death (the namenode's
// declared-dead seam — the same observation stream the ATLAS scheduler
// taps for trackers) bumps its site's loss tally, and a periodic tick
// folds the tally and the site's live-node-hours into a pair of
// exponentially-decayed accumulators whose ratio is the hazard, in
// preemptions per node-hour. A replica at site s then survives a repair
// horizon H with probability 1 - q_s where
//
//     q_s = 1 - exp(-hazard_s * H)
//
// and a block is unavailable only if every replica is lost:
//
//     unavail(rf) = prod over the rf most reliable placements of q.
//
// The controller picks the smallest rf in [min_replication,
// max_replication] with unavail(rf) <= 1 - availability_target, counting
// the block's current holders first (most reliable sites first) and a
// cluster-mean q for hypothetical additional copies. Pricing replicas as
// fully independent would be wrong on a grid — a site batch (half of
// fnal at one heartbeat recheck) takes co-located copies together — so
// correlation enters twice: a site's second and later copies are priced
// with a common-shock discount (q_dup = correlation + (1-correlation)*q,
// so clumped layouts earn higher targets and the resulting repairs
// re-spread them), and a spread floor rides on top — the copies must
// span min_site_spread distinct sites no matter what the count says,
// and trims never take a site's last copy while the block sits at the
// floor.
//
// The estimator is deliberately slow to trust: a storm's death burst
// raises the rate (and hence targets) within one tick, but a site only
// earns a low rate by accumulating quiet node-hours against its record;
// lowering only happens once a TIGHTER target is still met
// (a dead band, so boundary-hovering hazards do not churn WAN copies),
// and for a warmup period after Start the controller will raise but
// never shed replicas — the prior is not evidence of safety.
//
// Actuation goes through the PR-5 machinery in both directions: raising a
// block's target (Namenode::SetBlockReplication) surfaces a deficit that
// the prioritized ReplicationQueue repairs under the two-tier stream
// throttle; lowering it trims excess replicas via RemoveReplica — but only
// when the block is provably safe (no queued deficit, no repair in flight,
// every holder serving, never below the floor), at most a couple of
// replicas per tick. The src/check auditor cross-checks the floor/cap and
// that no unsafe trim ever fired.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/hdfs/types.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"

namespace hogsim::check {
class Auditor;
}  // namespace hogsim::check

namespace hogsim::hdfs {

class Namenode;

struct ReplControllerConfig {
  /// Per-block availability target over one repair horizon, e.g. 0.999.
  /// <= 0 disables the controller (HogCluster then never constructs one).
  double availability_target = 0;

  /// RF clamp. The floor keeps every block able to survive a two-replica
  /// correlated loss; the cap is HOG's paper setting.
  int min_replication = 3;
  int max_replication = 10;

  /// Controller cadence: hazard EWMAs fold and the block scan advances
  /// once per tick.
  SimDuration tick = 30 * kSecond;

  /// Memory of the hazard estimator. The per-site rate is a ratio of two
  /// exponentially-decayed accumulators, deaths / node-hours, both decayed
  /// with this time constant — a storm's death burst raises the rate
  /// proportionally within one tick, a single stray death is damped by
  /// the accumulated exposure, and the post-storm decay is smooth (the
  /// rate halves every ~memory*ln 2 of quiet).
  SimDuration hazard_memory = 1 * kHour;

  /// Exposure window H for the availability math — how long a lost
  /// replica stays lost before the repair machinery restores redundancy.
  /// Dead-node detection takes ~30 s (HOG's tuned heartbeat_recheck) and
  /// the prioritized queue repairs critical blocks within a minute or
  /// two even under churn, so ten minutes is a ~5x safety margin on the
  /// observed detect+repair latency.
  SimDuration horizon = 10 * kMinute;

  /// Hazard prior (preemptions per node-hour) for sites with no
  /// observations yet; also the floor of the estimate so no site is ever
  /// treated as perfectly safe.
  double prior_hazard_per_hour = 0.25;

  /// Excess replicas are trimmed only once live > desired + slack, so a
  /// target flickering by one does not bounce copies across the WAN.
  int trim_slack = 1;

  /// Copies must span at least this many distinct sites (capped at the
  /// sites actually alive): the independence assumption in the
  /// availability product breaks under correlated site-batch
  /// preemptions, and spread is the defense the math cannot price.
  int min_site_spread = 3;

  /// Common-shock probability for co-located replicas: given one copy at
  /// a site is lost, a second copy there is lost with probability
  /// correlation + (1 - correlation) * q (the batch that took the first
  /// often takes the whole slice of the site). Discounting duplicates
  /// this way makes a clumped block's target rise, which queues a repair
  /// that site-diverse placement lands on a fresh site — clumping heals
  /// itself even when the copy count looks satisfied.
  double site_correlation = 0.3;

  /// Extra loss risk carried by a replica whose holder sits in health
  /// quarantine (src/health): a probated copy is priced at
  /// risk + (1 - risk) * q — the flapping or degraded node may well be
  /// on its way out, so blocks leaning on probated holders earn higher
  /// targets and repairs land on healthy nodes. Only consulted when a
  /// quarantine manager is attached to the namenode.
  double probation_risk = 0.5;

  /// Targets are only LOWERED to the RF that still meets a tighter target
  /// (shortfall budget scaled by this factor), opening a dead band between
  /// the raise and lower thresholds: a hazard hovering at an RF boundary
  /// raises once and then holds, instead of churning replicas.
  double lower_headroom = 0.25;

  /// No lowering or trimming until this much sim time after Start(): the
  /// hazard estimates start at the prior, and shedding replicas on an
  /// unearned prior is how data dies in the first storm. At least one
  /// estimator memory's worth of observation is needed before the rates
  /// mean anything. Raising is always allowed.
  SimDuration warmup = 1 * kHour;

  /// Excess replicas trimmed from one block in one tick. Shedding a deep
  /// overshoot (RF 10 -> 4) across several ticks keeps redundancy up
  /// while the estimates are still moving.
  int max_trims_per_tick = 2;

  /// Blocks examined per tick (cursor wraps across ticks), bounding
  /// controller work per tick on large block maps.
  std::size_t scan_budget = 4096;
};

class ReplController {
 public:
  ReplController(Namenode& nn, ReplControllerConfig config);
  ReplController(const ReplController&) = delete;
  ReplController& operator=(const ReplController&) = delete;

  /// Arms the periodic tick and hooks the namenode's declared-dead seam.
  void Start();

  /// The smallest rf in [min_rf, max_rf] whose unavailability meets
  /// 1 - target, taking the existing replicas' loss probabilities
  /// (`holder_q`, any order) first — most reliable first — and `spare_q`
  /// for hypothetical additional copies. Pure, deterministic; exposed for
  /// unit tests.
  static int TargetRf(std::vector<double> holder_q, double spare_q,
                      double target, int min_rf, int max_rf);

  /// Current hazard estimate for a site (rack string), in preemptions per
  /// node-hour; the prior for unseen sites.
  double SiteHazardPerHour(const std::string& rack) const;

  const ReplControllerConfig& config() const { return config_; }
  std::uint64_t targets_raised() const { return ins_.target_raised.value(); }
  std::uint64_t targets_lowered() const {
    return ins_.target_lowered.value();
  }
  std::uint64_t excess_removed() const { return ins_.excess_removed.value(); }
  std::uint64_t ticks_run() const { return ins_.ticks.value(); }
  /// Trims that would have violated a safety guard had they fired. The
  /// guards are checked before acting, so this stays 0; the auditor
  /// asserts it (hdfs.repl_safe_trim).
  std::uint64_t unsafe_trims() const { return unsafe_trims_; }

 private:
  friend class ::hogsim::check::Auditor;

  struct SiteState {
    double hazard_per_hour = 0;   // cached deaths_acc / exposure_acc
    double deaths_acc = 0;        // decayed death count
    double exposure_acc = 0;      // decayed node-hours
    std::uint64_t deaths_since_tick = 0;
    std::uint64_t deaths_total = 0;
  };

  // Observability handles, registered once at construction (obs/metrics.h).
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& m)
        : target_raised(m.GetCounter("hdfs.repl.target_raised")),
          target_lowered(m.GetCounter("hdfs.repl.target_lowered")),
          excess_removed(m.GetCounter("hdfs.repl.excess_removed")),
          excess_bytes_freed(m.GetCounter("hdfs.repl.excess_bytes_freed")),
          ticks(m.GetCounter("hdfs.repl.ticks")),
          mean_target(m.GetGauge("hdfs.repl.mean_target")),
          max_site_hazard(m.GetGauge("hdfs.repl.max_site_hazard")) {}
    obs::Counter& target_raised;
    obs::Counter& target_lowered;
    obs::Counter& excess_removed;
    obs::Counter& excess_bytes_freed;
    obs::Counter& ticks;
    obs::Gauge& mean_target;
    obs::Gauge& max_site_hazard;
  };

  void Tick();
  void ObserveDeath(DatanodeId id);
  void FoldHazards();
  /// Loss probability of one replica at `rack` over the horizon.
  double SiteLossProb(const std::string& rack) const;
  /// Live-node-weighted mean loss probability (for hypothetical copies).
  double MeanLossProb() const;
  /// Number of distinct sites with at least one live datanode.
  int AliveSites() const;
  /// Applies the availability math to one committed block: retargets its
  /// replication and trims provably safe excess. Lowering and trimming
  /// are disabled until the post-Start warmup has elapsed.
  void AdjustBlock(BlockId block, double spare_q, int alive_sites,
                   bool may_lower);

  Namenode& nn_;
  ReplControllerConfig config_;
  Instruments ins_;
  std::map<std::string, SiteState> sites_;  // ordered: deterministic scans
  sim::PeriodicTimer timer_;
  SimTime last_fold_ = 0;
  SimTime started_at_ = 0;
  BlockId cursor_ = 1;

  std::uint64_t unsafe_trims_ = 0;
};

}  // namespace hogsim::hdfs
