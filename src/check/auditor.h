// Cross-layer invariant auditor.
//
// The simulator's subsystems keep redundant views of the same state: the
// namenode mirrors datanode disks, the jobtracker mirrors tasktracker
// slots, the grid keeps census counters over its node table. Each mirror
// is maintained incrementally at dozens of mutation sites, and a missed
// update corrupts results silently — a leaked slot starves the scheduler,
// a stale replica count stalls re-replication — long after the buggy event
// fired. The Auditor recomputes every mirror from ground truth on a
// periodic sim-time tick (and on demand at end-of-run) and reports any
// divergence as a structured violation, so chaos soaks can assert that the
// whole stack stayed self-consistent through arbitrary failure schedules.
//
// The auditor READS the audited subsystems (via friend access to their
// private state) and never mutates them; an armed auditor must not change
// any run's trajectory. For the same reason every invariant is phrased
// against the namenode's *beliefs* where beliefs legitimately lag truth:
// a zombie datanode keeps heartbeating and stays in holder sets until the
// working-directory probe or the heartbeat recheck catches it, which is
// correct behavior, not a violation.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/sim/simulation.h"

namespace hogsim::grid {
class Grid;
}
namespace hogsim::hdfs {
class Namenode;
class ReplController;
}
namespace hogsim::health {
class Liveness;
}
namespace hogsim::mr {
class JobTracker;
}

namespace hogsim::check {

/// One detected divergence between a maintained counter/index and the
/// ground truth it mirrors.
struct Violation {
  const char* invariant = "";  // static id, e.g. "hdfs.holders_bidir"
  std::string detail;          // human-readable specifics
  SimTime at = 0;
};

/// Thrown by fail-fast audits so a test dies at the first inconsistent
/// tick, with the violation in the message.
class AuditError : public std::runtime_error {
 public:
  explicit AuditError(const Violation& v);
};

class Auditor {
 public:
  struct Options {
    /// Throw AuditError on the first violation instead of accumulating.
    bool fail_fast = false;
    /// Periodic audit interval for Start(); 0 disables the timer (audits
    /// then run only via explicit AuditNow() calls).
    SimDuration period = 10 * kSecond;
  };

  /// Any subsystem pointer may be null; its invariants are skipped. The
  /// audited objects must outlive the auditor.
  Auditor(sim::Simulation& sim, hdfs::Namenode* namenode,
          mr::JobTracker* jobtracker, grid::Grid* grid, Options options);
  Auditor(sim::Simulation& sim, hdfs::Namenode* namenode,
          mr::JobTracker* jobtracker, grid::Grid* grid);
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Attaches the adaptive replication controller (may be null — the
  /// repl-floor invariants are then skipped). Requires a non-null
  /// namenode to have any effect.
  void set_repl_controller(const hdfs::ReplController* repl) {
    repl_ = repl;
  }

  /// Arms the periodic tick (no-op when options.period == 0).
  void Start();

  /// Runs every invariant check once; returns the number of violations
  /// found by this pass. With fail_fast, throws on the first one instead.
  std::size_t AuditNow();

  /// Total violations across all passes (the check.violations counter).
  std::uint64_t violations() const { return ins_.violations.value(); }
  std::uint64_t audits_run() const { return ins_.audits.value(); }

  /// Retained violation records, oldest first (capped at kMaxRecords so a
  /// systemic breakage cannot balloon memory; the counter keeps the true
  /// total).
  const std::vector<Violation>& records() const { return records_; }
  static constexpr std::size_t kMaxRecords = 256;

 private:
  // Observability handles, registered once at construction (obs/metrics.h).
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& m)
        : violations(m.GetCounter("check.violations")),
          audits(m.GetCounter("check.audits")) {}
    obs::Counter& violations;
    obs::Counter& audits;
  };

  void Report(const char* invariant, std::string detail);

  void AuditHdfs();
  void AuditReplController();
  void AuditMapReduce();
  /// One master's heartbeat bookkeeping (run for both masters).
  void AuditLiveness(const health::Liveness& liveness);
  void AuditGrid();

  sim::Simulation& sim_;
  hdfs::Namenode* nn_;
  mr::JobTracker* jt_;
  grid::Grid* grid_;
  const hdfs::ReplController* repl_ = nullptr;
  Options options_;
  Instruments ins_;
  sim::PeriodicTimer timer_;
  std::size_t pass_violations_ = 0;  // scratch for the current AuditNow
  std::vector<Violation> records_;
};

}  // namespace hogsim::check
