// Pluggable MapReduce scheduling (ROADMAP item 3).
//
// The jobtracker used to hard-code Hadoop 0.20's FIFO assignment loop;
// this module extracts the policy decision — "which task does this
// heartbeating tracker run next?" — behind SchedulerPolicy, keeping the
// mechanism (slot accounting, attempt lifecycle, RPCs) in the jobtracker.
//
// Contract every policy must honor (pinned by tests/sched_conformance_test.cc):
//
//  * Determinism. Picks are pure functions of simulation state: no host
//    randomness, no wall clock, no container iteration order that varies
//    between runs. Ties break on stable keys (task index, pool name).
//  * One pick per call. The jobtracker offers one map slot and one reduce
//    slot per heartbeat (Hadoop 0.20 behaviour); the policy returns at
//    most one assignment per offer and must not launch anything itself.
//  * Work conservation. If any running job has a runnable task the
//    offering tracker may legally execute (not blacklisted, slot free),
//    the policy must return an assignment — fairness shapes the order,
//    never idles the slot. (Delay scheduling's bounded locality wait is
//    the one sanctioned exception, gated by MrConfig::locality_wait_*.)
//  * Policy-owned queues. Job ordering state lives in the policy, fed by
//    the On*() hooks; terminal jobs may be pruned lazily on pick, like
//    the legacy FIFO queue. The jobtracker's pending lists stay the
//    ground truth for which tasks need attempts.
//  * Timers. Only non-FIFO policies may arm simulation timers (e.g. the
//    Fair preemption tick): the FIFO policy is pinned byte-identical to
//    the pre-extraction event stream by tests/sched_golden_test.cc.
//
// Policies are resolved by name through CreatePolicy ("fifo", "fair",
// "capacity", "atlas"), with optional parameters after a colon in the
// one plug-in spec grammar (src/util/spec.h) — see each policy's header
// for its keys.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/mapreduce/jobtracker.h"
#include "src/util/spec.h"

namespace hogsim::sched {

/// One task pick: at most one per PickMap/PickReduce call.
struct Assignment {
  mr::JobId job = mr::kInvalidJob;
  int task_index = -1;
  bool speculative = false;
  /// Maps: 0 node-local / 1 rack-local / 2 off-site. Reduces always 2.
  int locality = 2;

  bool valid() const { return task_index >= 0; }
};

/// The policies' window into the jobtracker: read access to jobs,
/// trackers, and the attempt ledger, plus the shared scheduling machinery
/// (locality classification, pending-scan picks, speculation and delay-
/// scheduling gates) extracted verbatim from the legacy FIFO scheduler so
/// every policy reuses identical tie-breaking.
class ClusterView {
 public:
  explicit ClusterView(mr::JobTracker& jt) : jt_(jt) {}

  sim::Simulation& sim();
  SimTime now() const;

  mr::JobInfo& job(mr::JobId id);
  const mr::JobTracker::TrackerEntry& tracker(mr::TrackerId id) const;
  /// Map/reduce slots across alive trackers (fair/capacity share bases).
  int total_map_slots() const;
  int total_reduce_slots() const;

  bool TaskNeedsAttempt(const mr::JobInfo& job, const mr::TaskInfo& task) const;
  /// Locality tier of `task`'s input relative to `tracker`:
  /// 0 node-local, 1 rack-local, 2 off-site.
  int LocalityTier(const mr::TaskInfo& task, mr::TrackerId tracker) const;
  /// Classic slowness-triggered speculation gate (never a backup on the
  /// tracker already running the lone attempt).
  bool CanSpeculate(const mr::JobInfo& job, const mr::TaskInfo& task,
                    mr::TrackerId offerer) const;
  /// Delay-scheduling gate: may `job` concede a tier-`locality` launch
  /// now? Mutates the job's wait clock; call only when about to launch.
  bool LocalityWaitPermits(mr::JobInfo& job, int locality);

  /// The legacy FIFO per-job map pick: best (locality tier, task index)
  /// over the pending list (stale entries pruned), then speculation.
  /// Returns the task index or -1; honors the job's tracker blacklist.
  int PickMapTask(mr::JobInfo& job, mr::TrackerId tracker, int* locality,
                  bool* speculative);
  /// The legacy per-job reduce pick: slowstart gate, lowest pending
  /// index, then speculation.
  int PickReduceTask(mr::JobInfo& job, mr::TrackerId tracker,
                     bool* speculative);

  /// Tracker currently running `attempt`, or kInvalidTracker.
  mr::TrackerId AttemptTracker(mr::AttemptId attempt) const;
  /// Kills a running attempt and requeues its task WITHOUT charging a
  /// task failure or blacklist strike (fair-share preemption is the
  /// scheduler's fault, not the task's).
  void PreemptAttempt(mr::AttemptId attempt);

 private:
  mr::JobTracker& jt_;
};

/// Task-selection policy. Hooks are invoked synchronously by the
/// jobtracker as its state changes; picks are offered per heartbeat.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual const char* name() const = 0;

  /// Called once, before any hook or pick. `view` outlives the policy.
  void Attach(ClusterView& view) {
    view_ = &view;
    OnAttach();
  }

  /// Offer of one free map (resp. reduce) slot on an alive tracker.
  virtual Assignment PickMap(mr::TrackerId tracker) = 0;
  virtual Assignment PickReduce(mr::TrackerId tracker) = 0;

  // State-change hooks (default no-ops). Terminal jobs and lost trackers
  // may also be discovered lazily through the view.
  virtual void OnJobSubmitted(mr::JobId /*job*/) {}
  virtual void OnJobTerminal(mr::JobId /*job*/) {}
  virtual void OnTrackerRegistered(mr::TrackerId /*tracker*/) {}
  virtual void OnTrackerLost(mr::TrackerId /*tracker*/) {}
  virtual void OnAttemptEvent(const mr::JobTracker::AttemptEvent& /*event*/) {}

 protected:
  /// Post-Attach setup (e.g. arming a policy timer — non-FIFO only).
  virtual void OnAttach() {}

  ClusterView* view_ = nullptr;
};

/// Builds the policy named by `spec`, in the one plug-in grammar
/// (src/util/spec.h): "fair" or "capacity:queues=prod:0.6:1.0;adhoc:0.4:0.8".
/// Throws std::invalid_argument on an unknown name or malformed params.
std::unique_ptr<SchedulerPolicy> CreatePolicy(const std::string& spec);

/// Registered policy names, in registry order ("fifo" first).
const std::vector<std::string>& PolicyNames();

}  // namespace hogsim::sched
