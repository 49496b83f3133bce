#include "src/hdfs/repl_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/hdfs/namenode.h"
#include "src/hdfs/topology.h"
#include "src/util/log.h"

namespace hogsim::hdfs {

namespace {

// Single-replica loss probabilities are clamped away from the extremes:
// no site is ever a certain loss (the product must stay meaningful) nor
// perfectly safe (the prior hazard already floors the estimate, this is
// belt-and-suspenders for the math).
constexpr double kMinLossProb = 1e-6;
constexpr double kMaxLossProb = 0.999;

// Hazards are learned per SITE, not per rack: a multi-rack topology
// (src/net/topo) refines a site's rack strings ("/fnal.gov/r3"), but grid
// preemption is a site-batch phenomenon, so observations from all of a
// site's racks pool into one estimator. Under star the rack string IS the
// site and this is the identity.
std::string SiteKey(const std::string& rack) {
  return std::string(SiteOfRack(rack));
}

}  // namespace

ReplController::ReplController(Namenode& nn, ReplControllerConfig config)
    : nn_(nn),
      config_(config),
      ins_(nn.simulation().obs().metrics()) {
  assert(config_.min_replication >= 1);
  if (config_.max_replication < config_.min_replication) {
    config_.max_replication = config_.min_replication;
  }
}

void ReplController::Start() {
  nn_.set_on_datanode_dead([this](DatanodeId id) { ObserveDeath(id); });
  last_fold_ = nn_.simulation().now();
  started_at_ = last_fold_;
  timer_.Start(nn_.simulation(), config_.tick, [this] { Tick(); });
}

int ReplController::TargetRf(std::vector<double> holder_q, double spare_q,
                             double target, int min_rf, int max_rf) {
  if (max_rf < min_rf) max_rf = min_rf;
  const double max_unavail = std::max(1.0 - target, 0.0);
  // Existing replicas count first, most reliable site first: the block is
  // as safe as its best placements, and extra hypothetical copies land at
  // a cluster-average site.
  std::sort(holder_q.begin(), holder_q.end());
  double unavail = 1.0;
  for (int rf = 1; rf <= max_rf; ++rf) {
    const double q = rf <= static_cast<int>(holder_q.size())
                         ? holder_q[rf - 1]
                         : spare_q;
    unavail *= std::clamp(q, kMinLossProb, kMaxLossProb);
    if (rf >= min_rf && unavail <= max_unavail) return rf;
  }
  return max_rf;
}

double ReplController::SiteHazardPerHour(const std::string& rack) const {
  auto it = sites_.find(SiteKey(rack));
  return it == sites_.end() ? config_.prior_hazard_per_hour
                            : it->second.hazard_per_hour;
}

double ReplController::SiteLossProb(const std::string& rack) const {
  const double horizon_h = ToSeconds(config_.horizon) / 3600.0;
  const double q = 1.0 - std::exp(-SiteHazardPerHour(rack) * horizon_h);
  return std::clamp(q, kMinLossProb, kMaxLossProb);
}

void ReplController::ObserveDeath(DatanodeId id) {
  const std::string rack = SiteKey(nn_.datanode(id).rack);
  auto [it, inserted] = sites_.try_emplace(
      rack, SiteState{config_.prior_hazard_per_hour, 0, 0, 0, 0});
  ++it->second.deaths_since_tick;
  ++it->second.deaths_total;
}

void ReplController::FoldHazards() {
  const SimTime now = nn_.simulation().now();
  const double dt_h = ToSeconds(now - last_fold_) / 3600.0;
  last_fold_ = now;
  if (dt_h <= 0) return;
  const double memory_h =
      std::max(ToSeconds(config_.hazard_memory) / 3600.0, 1e-6);
  const double decay = std::exp(-dt_h / memory_h);

  // Live-node census per site: the exposure accumulated this window. A
  // quiet site earns its low rate by stacking node-hours against its
  // death record, so the estimate converges on the true per-node rate
  // instead of latching onto one noisy 30-second sample.
  std::map<std::string, int> live;
  for (DatanodeId id = 0; id < nn_.datanode_count(); ++id) {
    if (nn_.DatanodeAlive(id)) ++live[SiteKey(nn_.datanode(id).rack)];
  }
  for (const auto& [rack, count] : live) {
    sites_.try_emplace(rack,
                       SiteState{config_.prior_hazard_per_hour, 0, 0, 0, 0});
  }

  double max_hazard = 0;
  for (auto& [rack, site] : sites_) {
    auto it = live.find(rack);
    const int nodes = it == live.end() ? 0 : it->second;
    // Both accumulators decay together: with zero live nodes the ratio —
    // and thus the estimate — holds (the deaths that emptied the site
    // already fed it), and exposure from the distant past cannot dilute
    // a fresh storm forever.
    site.deaths_acc =
        site.deaths_acc * decay +
        static_cast<double>(site.deaths_since_tick);
    site.exposure_acc = site.exposure_acc * decay + nodes * dt_h;
    if (site.exposure_acc > 1e-9) {
      // The prior floors the estimate: even a long-quiet opportunistic
      // site can preempt tomorrow, so its replicas are never free.
      site.hazard_per_hour =
          std::max(site.deaths_acc / site.exposure_acc,
                   config_.prior_hazard_per_hour);
    }
    site.deaths_since_tick = 0;
    max_hazard = std::max(max_hazard, site.hazard_per_hour);
  }
  ins_.max_site_hazard.Set(max_hazard);
}

double ReplController::MeanLossProb() const {
  double weighted = 0;
  int total = 0;
  std::map<std::string, int> live;
  for (DatanodeId id = 0; id < nn_.datanode_count(); ++id) {
    if (nn_.DatanodeAlive(id)) ++live[SiteKey(nn_.datanode(id).rack)];
  }
  for (const auto& [rack, count] : live) {
    weighted += count * SiteLossProb(rack);
    total += count;
  }
  if (total == 0) return SiteLossProb("");  // prior-derived fallback
  return weighted / total;
}

int ReplController::AliveSites() const {
  std::map<std::string, int> live;
  for (DatanodeId id = 0; id < nn_.datanode_count(); ++id) {
    if (nn_.DatanodeAlive(id)) ++live[SiteKey(nn_.datanode(id).rack)];
  }
  return static_cast<int>(live.size());
}

void ReplController::Tick() {
  ins_.ticks.Add();
  FoldHazards();

  const BlockId end = nn_.block_count();
  if (end <= 1) return;
  const double spare_q = MeanLossProb();
  const int alive_sites = AliveSites();
  const bool may_lower =
      nn_.simulation().now() >= started_at_ + config_.warmup;
  std::size_t budget =
      std::min<std::size_t>(config_.scan_budget, end - 1);
  long target_sum = 0;
  long target_blocks = 0;
  while (budget-- > 0) {
    if (cursor_ >= end) cursor_ = 1;
    const BlockId block = cursor_++;
    AdjustBlock(block, spare_q, alive_sites, may_lower);
    if (nn_.BlockCommitted(block)) {
      target_sum += nn_.BlockReplication(block);
      ++target_blocks;
    }
  }
  if (target_blocks > 0) {
    ins_.mean_target.Set(static_cast<double>(target_sum) / target_blocks);
  }
}

void ReplController::AdjustBlock(BlockId block, double spare_q,
                                 int alive_sites, bool may_lower) {
  if (!nn_.BlockCommitted(block)) return;
  const int cur = nn_.BlockReplication(block);
  // Files deliberately created below the floor (temp data, ablation runs)
  // are outside the controller's contract; leave them alone.
  if (cur < config_.min_replication) return;

  // Believed-alive holders, with per-replica loss probabilities; a
  // non-serving holder (zombie) poisons trim safety.
  std::vector<DatanodeId> holders = nn_.BlockHolders(block);
  std::vector<double> holder_q;
  bool all_serving = true;
  std::map<std::string, int> per_site;
  for (DatanodeId dn : holders) {
    const auto& entry = nn_.datanode(dn);
    if (!nn_.DatanodeServing(dn)) all_serving = false;
    // Common-shock pricing for co-located copies: the first replica at a
    // site enters the product at the site's loss probability q; each
    // additional one at rho + (1 - rho) * q — the batch preemption that
    // took the first usually takes its neighbors. Clumped layouts thus
    // look (correctly) less safe than spread ones, the target rises, and
    // the resulting repair lands on a fresh site (placement excludes
    // holders and maximizes diversity): clumping heals itself.
    double q = SiteLossProb(entry.rack);
    // A quarantined holder is priced at elevated loss risk (the same
    // common-shock form as co-location): its flapping or degraded node is
    // likelier than its site average to drop the copy, so blocks leaning
    // on probated holders earn higher targets.
    if (nn_.Probated(dn)) {
      q = config_.probation_risk + (1.0 - config_.probation_risk) * q;
    }
    const int prior_copies = per_site[SiteKey(entry.rack)]++;
    holder_q.push_back(prior_copies == 0
                           ? q
                           : config_.site_correlation +
                                 (1.0 - config_.site_correlation) * q);
  }
  const int live = static_cast<int>(holders.size());
  const int sites_held = static_cast<int>(per_site.size());
  // Copy count from the independent per-node product. Raise threshold:
  // the smallest RF meeting the target. Lower threshold: the smallest RF
  // still meeting a TIGHTER target (shortfall budget scaled by
  // lower_headroom < 1), so between the two the target holds — a dead
  // band instead of flapping at an RF boundary.
  const double tight_target =
      1.0 - (1.0 - config_.availability_target) * config_.lower_headroom;
  int needed =
      TargetRf(holder_q, spare_q, config_.availability_target,
               config_.min_replication, config_.max_replication);
  int hold = TargetRf(holder_q, spare_q, tight_target,
                      config_.min_replication, config_.max_replication);

  // Spread floor: per-node independence misprices correlated site
  // batches (half of fnal can vanish at one heartbeat recheck), so the
  // copies must span several distinct sites regardless of count. Short
  // of the floor, one extra copy per missing site — placement maximizes
  // site diversity and excludes current holders, so each repair lands on
  // a new site.
  const int spread_floor = std::min(config_.min_site_spread, alive_sites);
  if (sites_held < spread_floor) {
    needed = std::clamp(live + (spread_floor - sites_held), needed,
                        config_.max_replication);
  }
  if (hold < needed) hold = needed;

  int desired = cur;
  if (needed > cur) {
    desired = needed;
    nn_.SetBlockReplication(block, desired);
    ins_.target_raised.Add();
  } else if (may_lower && hold < cur) {
    desired = hold;
    nn_.SetBlockReplication(block, desired);
    ins_.target_lowered.Add();
  }

  // Trim excess replicas, only when the block is provably safe:
  //  - past the warmup (the prior is not evidence of safety),
  //  - comfortably above the target (hysteresis band of trim_slack),
  //  - not queued for repair and no repair in flight,
  //  - every holder actually serving (a zombie-held copy may be gone),
  // and at most max_trims_per_tick replicas at a time.
  if (!may_lower) return;
  if (live <= desired + config_.trim_slack) return;
  if (!all_serving) return;
  if (nn_.replication_queue().contains(block)) return;
  if (nn_.BlockPendingReplications(block) > 0) return;

  int remaining = live;
  int sites_now = sites_held;
  int trim_budget = config_.max_trims_per_tick;
  while (remaining > desired && trim_budget-- > 0) {
    // Victim: the site holding the most copies of this block (trimming
    // duplicates preserves site diversity), then the flakiest site, then
    // the highest id — a fully deterministic order. A site\'s last copy
    // is untouchable while the block sits at the spread floor.
    DatanodeId victim = kInvalidDatanode;
    int victim_copies = 0;
    double victim_hazard = -1;
    for (DatanodeId dn : holders) {
      const std::string rack = SiteKey(nn_.datanode(dn).rack);
      const int copies = per_site[rack];
      if (copies == 1 && sites_now <= spread_floor) continue;
      const double hazard = SiteHazardPerHour(rack);
      if (victim == kInvalidDatanode || copies > victim_copies ||
          (copies == victim_copies && hazard > victim_hazard) ||
          (copies == victim_copies && hazard == victim_hazard &&
           dn > victim)) {
        victim = dn;
        victim_copies = copies;
        victim_hazard = hazard;
      }
    }
    if (victim == kInvalidDatanode ||
        remaining - 1 < config_.min_replication) {
      // No removable replica at this size (every remaining copy is a
      // site\'s last and the block sits at the spread floor), or the
      // floor itself — stop; the min_replication case is guarded out
      // above (desired >= min_replication) and counted so the auditor
      // can prove no unsafe trim ever fired.
      if (victim != kInvalidDatanode) ++unsafe_trims_;
      break;
    }
    const std::string victim_rack = SiteKey(nn_.datanode(victim).rack);
    if (--per_site[victim_rack] == 0) --sites_now;
    std::erase(holders, victim);
    const Bytes size = nn_.BlockSize(block);
    nn_.RemoveReplica(block, victim);
    ins_.excess_removed.Add();
    ins_.excess_bytes_freed.Add(static_cast<std::uint64_t>(size));
    --remaining;
  }
}

}  // namespace hogsim::hdfs
