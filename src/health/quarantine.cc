#include "src/health/quarantine.h"

#include <algorithm>

#include "src/util/log.h"

namespace hogsim::health {

Quarantine::Quarantine(sim::Simulation& sim, QuarantineConfig config,
                       SimDuration heartbeat_interval,
                       std::function<int(std::uint32_t)> site_of)
    : sim_(sim),
      config_(config),
      heartbeat_interval_(heartbeat_interval),
      site_of_(std::move(site_of)),
      ins_(sim.obs().metrics()) {}

void Quarantine::Start() {
  timer_.Start(sim_, config_.tick, [this] { Tick(); });
}

Quarantine::NodeState& Quarantine::StateOf(std::uint32_t node) {
  if (nodes_.size() <= node) nodes_.resize(node + 1);
  return nodes_[node];
}

void Quarantine::OnFlap(std::uint32_t node) {
  NodeState& s = StateOf(node);
  ++s.flaps;
  ins_.flaps.Add();
  s.last_bad = sim_.now();
  if (s.flaps >= config_.flap_threshold) {
    MaybeProbate(node, s, "flapping");
  }
}

void Quarantine::OnHeartbeat(std::uint32_t node, SimTime now) {
  NodeState& s = StateOf(node);
  if (s.last_heartbeat != 0 && now > s.last_heartbeat) {
    const double interval_s = ToSeconds(now - s.last_heartbeat);
    if (s.heartbeat_samples == 0) {
      s.jitter_ewma_s = interval_s;
    } else {
      s.jitter_ewma_s +=
          config_.jitter_alpha * (interval_s - s.jitter_ewma_s);
    }
    ++s.heartbeat_samples;
    if (s.heartbeat_samples >= config_.min_task_samples &&
        s.jitter_ewma_s >
            config_.jitter_factor * ToSeconds(heartbeat_interval_)) {
      s.last_bad = now;
      MaybeProbate(node, s, "heartbeat jitter");
    }
  }
  s.last_heartbeat = now;
}

double Quarantine::PeerMedian(std::uint32_t node, int site) const {
  // Median of the OTHER same-site nodes' duration EWMAs. Excluding the
  // node itself and taking a median — not a pooled site EWMA — keeps the
  // baseline honest when a minority of the site is degraded: a slow
  // node's own samples must not drag down the bar it is measured against.
  std::vector<double> peers;
  for (std::uint32_t other = 0; other < nodes_.size(); ++other) {
    if (other == node) continue;
    const NodeState& o = nodes_[other];
    if (o.task_samples < config_.min_task_samples || o.site != site) continue;
    peers.push_back(o.duration_ewma_s);
  }
  if (peers.size() < 3) return 0;  // too few peers for a verdict
  const auto mid = peers.begin() + static_cast<std::ptrdiff_t>(peers.size() / 2);
  std::nth_element(peers.begin(), mid, peers.end());
  return *mid;
}

void Quarantine::OnTaskDuration(std::uint32_t node, double seconds) {
  NodeState& s = StateOf(node);
  if (s.task_samples == 0) {
    s.duration_ewma_s = seconds;
    s.site = site_of_ ? site_of_(node) : -1;
  } else {
    s.duration_ewma_s += config_.duration_alpha * (seconds - s.duration_ewma_s);
  }
  ++s.task_samples;

  if (s.site < 0) return;
  const double median = PeerMedian(node, s.site);
  if (s.task_samples >= config_.min_task_samples && median > 0 &&
      s.duration_ewma_s > config_.degrade_factor * median) {
    s.last_bad = sim_.now();
    ins_.degraded_detected.Add();
    MaybeProbate(node, s, "degraded vs site peers");
  }
}

void Quarantine::OnNodeDead(std::uint32_t node) {
  if (node >= nodes_.size()) return;
  NodeState& s = nodes_[node];
  if (s.probated) {
    --probated_count_;
    ins_.probated.Set(static_cast<double>(probated_count_));
  }
  s = NodeState{};
}

bool Quarantine::Probated(std::uint32_t node) const {
  return node < nodes_.size() && nodes_[node].probated;
}

int Quarantine::FlapCount(std::uint32_t node) const {
  return node < nodes_.size() ? nodes_[node].flaps : 0;
}

void Quarantine::MaybeProbate(std::uint32_t node, NodeState& s,
                              const char* reason) {
  if (s.probated) return;
  s.probated = true;
  s.probated_at = sim_.now();
  ++probated_count_;
  ins_.probations_entered.Add();
  ins_.probated.Set(static_cast<double>(probated_count_));
  HOG_LOG(kInfo, sim_.now(), "health")
      << "node " << node << " probated (" << reason << "): flaps=" << s.flaps
      << " jitter=" << s.jitter_ewma_s << "s duration=" << s.duration_ewma_s
      << "s";
}

void Quarantine::Release(std::uint32_t node, NodeState& s) {
  s.probated = false;
  // Flap evidence resets on release so the next probation needs fresh
  // cycles; the EWMAs keep their history (they already decayed to good).
  s.flaps = 0;
  --probated_count_;
  ins_.probations_released.Add();
  ins_.probated.Set(static_cast<double>(probated_count_));
  HOG_LOG(kInfo, sim_.now(), "health") << "node " << node << " released";
}

bool Quarantine::Bad(std::uint32_t node, NodeState& s) {
  bool bad = false;
  if (s.heartbeat_samples >= config_.min_task_samples &&
      s.jitter_ewma_s > config_.release_fraction * config_.jitter_factor *
                            ToSeconds(heartbeat_interval_)) {
    bad = true;
  }
  if (s.site >= 0 && s.task_samples >= config_.min_task_samples) {
    const double median = PeerMedian(node, s.site);
    if (median > 0 &&
        s.duration_ewma_s >
            config_.release_fraction * config_.degrade_factor * median) {
      bad = true;
    }
  }
  if (bad) s.last_bad = sim_.now();
  return bad;
}

void Quarantine::Tick() {
  const SimTime now = sim_.now();
  for (std::uint32_t node = 0; node < nodes_.size(); ++node) {
    NodeState& s = nodes_[node];
    if (!s.probated) continue;
    if (now - s.probated_at < config_.probation_min) continue;
    if (Bad(node, s)) continue;
    if (now - s.last_bad < config_.quiet_window) continue;
    Release(node, s);
  }
}

}  // namespace hogsim::health
