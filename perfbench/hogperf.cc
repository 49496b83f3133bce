// hogperf: one benchmark run of the hogsim simulator.
//
// Runs one named workload from a seed in this process, on one simulation
// thread. It times each public call the benchmark makes into the
// simulator's layers and reads the layers' public counters around it:
//
//   construct  hog::HogCluster construction (+ the auditor, when armed)
//   spinup     RequestNodes + WaitForNodes (incl. the 95 % fallback)
//   prepare    schedule/scenario generation + WorkloadRunner::PrepareInputs
//   workload   WorkloadRunner::SubmitAll + Run
//   audit      the end-of-run Auditor::AuditNow
//
// Everything inside the event loop is out of reach from here; per-layer
// self time inside the loop needs in-program layer tags.
//
// Output: one JSON object on stdout with every metric by name and unit, the
// correctness checks and the simulated fingerprint. Exit code 0 when every
// check holds, 1 when one fails, 2 on a usage error or an exception.
//
// With --trace-out PATH the run is traced: spin-up and the workload loop
// are driven in fixed 60 s simulated slices of the same 1 s stepping the
// untraced calls use (so simulated results stay byte-identical), and every
// call and slice becomes a span, written at exit as Chrome trace JSON that
// Perfetto loads.
//
// Usage: hogperf --workload NAME --seed N [--trace-out PATH]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/check/auditor.h"
#include "src/exp/paper_runs.h"
#include "src/fault/injector.h"
#include "src/fault/scenario.h"
#include "src/hog/hog_cluster.h"
#include "src/obs/json_util.h"
#include "src/util/rng.h"
#include "src/workload/facebook.h"
#include "src/workload/runner.h"

namespace {

using namespace hogsim;
using Clock = std::chrono::steady_clock;
using obs::JsonEscape;
using obs::JsonNumber;

using exp::kRunDeadline;
using exp::kSpinUpDeadline;
constexpr SimDuration kSlice = 60 * kSecond;
constexpr double kGiBf = static_cast<double>(kGiB);

// ---- Workload definitions ------------------------------------------------

struct ClusterSpec {
  hog::HogConfig config;
  int nodes = 0;
  bool audit = false;
};

/// `count` stable 100-slot sites: no preemption, no bursts, 60 s queues.
std::vector<grid::SiteConfig> StableSites(int count, int pool) {
  std::vector<grid::SiteConfig> sites;
  for (int i = 0; i < count; ++i) {
    grid::SiteConfig site;
    site.resource_name = "STABLE_" + std::to_string(i);
    site.domain = "site" + std::to_string(i) + ".stable.edu";
    site.pool_size = pool;
    site.queue_delay_mean_s = 60.0;
    site.node_mtbf_s = 1e12;
    site.burst_interval_s = 1e12;
    site.burst_fraction = 0.0;
    sites.push_back(std::move(site));
  }
  return sites;
}

ClusterSpec MakeCluster(const std::string& workload) {
  ClusterSpec spec;
  if (workload == "elastic_4k") {
    spec.config.sites = StableSites(40, 100);
    spec.nodes = 4000;
  } else if (workload == "facebook_1101") {
    spec.nodes = 1101;  // the paper's Fig. 4 maximum, default OSG churn
  } else if (workload == "burst_repair") {
    spec.config.sites = hog::DefaultOsgSites();
    for (grid::SiteConfig& site : spec.config.sites) {
      site.node_mtbf_s = 1e12;  // only the scripted bursts preempt
      site.burst_interval_s = 1e12;
      site.burst_fraction = 0.0;
    }
    spec.config.net.topology = "tor:racks=4;oversub=8";
    spec.nodes = 300;
    spec.audit = true;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return spec;
}

/// A `jobs`-long schedule cycling four loadgen size classes, with Poisson
/// arrivals of the paper's 14 s mean gap.
std::vector<workload::ScheduledJob> SyntheticSchedule(
    int jobs, Rng& rng, const workload::WorkloadConfig& wl) {
  static constexpr int kMapClasses[] = {5, 10, 20, 50};
  std::vector<workload::ScheduledJob> schedule;
  SimTime at = 0;
  for (int i = 0; i < jobs; ++i) {
    const int cls = i % 4;
    workload::ScheduledJob job;
    job.bin = cls + 1;
    job.maps = kMapClasses[cls];
    job.reduces = std::max(1, kMapClasses[cls] / 5);
    job.submit_time = at;
    job.name = "synthetic-" + std::to_string(i);
    schedule.push_back(std::move(job));
    at += FromSeconds(rng.Exponential(wl.interarrival_mean_s));
  }
  return schedule;
}

struct Inputs {
  std::vector<workload::ScheduledJob> schedule;
  fault::Scenario scenario;  // armed at workload start; may be empty
};

Inputs MakeInputs(const std::string& workload, std::uint64_t seed,
                  const workload::WorkloadConfig& wl) {
  Inputs inputs;
  Rng rng(seed);
  if (workload == "elastic_4k") {
    inputs.schedule = SyntheticSchedule(30, rng, wl);
  } else {
    inputs.schedule = workload::GenerateFacebookSchedule(rng, wl);
  }
  // Condition the Poisson arrivals on the schedule's expected length: the
  // gaps keep their seed-drawn proportions, but every seed's schedule spans
  // (jobs - 1) mean gaps, so the seed moves the mix, not the load.
  const SimTime span = inputs.schedule.back().submit_time;
  const double scale =
      span > 0 ? wl.interarrival_mean_s *
                     static_cast<double>(inputs.schedule.size() - 1) /
                     ToSeconds(span)
               : 1.0;
  for (workload::ScheduledJob& job : inputs.schedule) {
    job.submit_time = static_cast<SimTime>(
        static_cast<double>(job.submit_time) * scale);
  }
  if (workload == "burst_repair") {
    // Correlated bursts 20/22/24 min into the workload, while the
    // schedule's last jobs are still running.
    inputs.scenario = fault::ParseScenario(
        "at 20m preempt-site 0 0.6\n"
        "at 22m preempt-site 2 0.5\n"
        "at 24m preempt-site 1 0.5\n",
        "burst_repair");
  }
  return inputs;
}

// ---- Counters read around each call --------------------------------------

/// The layers' public counters at one instant.
struct Reading {
  Clock::time_point host;
  SimTime now = 0;
  double executed = 0;
  double cancelled = 0;
  double delivered = 0;  // bytes
  double repair = 0;     // bytes
  // Levels sampled at this instant.
  double queued = 0;            // Simulation::queued()
  double active_flows = 0;      // FlowNetwork::active_flows()
  double under_replicated = 0;  // Namenode::under_replicated()
  double running_nodes = 0;     // Grid::running_nodes()
  std::map<std::string, double> rows;  // registry snapshot by name

  double Row(const std::string& name) const {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : it->second;
  }
};

Reading Read(hog::HogCluster& cluster) {
  Reading r;
  r.host = Clock::now();
  sim::Simulation& sim = cluster.sim();
  r.now = sim.now();
  r.executed = static_cast<double>(sim.executed());
  r.cancelled = static_cast<double>(sim.cancelled());
  r.delivered = static_cast<double>(cluster.network().delivered_bytes());
  r.repair = static_cast<double>(cluster.namenode().replication_bytes());
  r.queued = static_cast<double>(sim.queued());
  r.active_flows = static_cast<double>(cluster.network().active_flows());
  r.under_replicated =
      static_cast<double>(cluster.namenode().under_replicated());
  r.running_nodes = cluster.grid().running_nodes();
  for (const obs::MetricSample& s : sim.obs().metrics().Snapshot()) {
    if (s.kind == obs::MetricSample::Kind::kHistogram) {
      r.rows[s.name + ".count"] = static_cast<double>(s.histogram->count());
      r.rows[s.name + ".sum"] = s.histogram->sum();
    } else {
      r.rows[s.name] = s.value;
    }
  }
  return r;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

/// Peak resident memory of this process image (VmHWM; unlike getrusage's
/// ru_maxrss it does not inherit the peak of the parent that spawned us).
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return -1;
}

/// Committed output blocks of succeeded jobs with no live replica (the
/// drain check of exp::RunHogWorkload).
std::uint64_t OutputsLost(hog::HogCluster& cluster) {
  const mr::JobTracker& jt = cluster.jobtracker();
  const hdfs::Namenode& nn = cluster.namenode();
  std::uint64_t lost = 0;
  for (std::size_t j = 0; j < jt.job_count(); ++j) {
    const mr::JobInfo& job = jt.job(static_cast<mr::JobId>(j));
    if (job.state != mr::JobState::kSucceeded ||
        job.output_file == hdfs::kInvalidFile) {
      continue;
    }
    for (const hdfs::BlockLocation& loc : nn.GetFileBlocks(job.output_file)) {
      if (loc.datanodes.empty() && nn.BlockCommitted(loc.block)) ++lost;
    }
  }
  return lost;
}

double StorageUsedBytes(hog::HogCluster& cluster) {
  double used = 0;
  for (const grid::GridNodeId id : cluster.grid().RunningNodeIds()) {
    used += static_cast<double>(cluster.grid().node(id)->disk().used());
  }
  return used;
}

// ---- Spans, written for traced runs ---------------------------------------

/// Spans kept in memory and written once, as Chrome trace JSON. Every span
/// carries its parent's id and the run id.
class SpanLog {
 public:
  SpanLog(std::string run_id, Clock::time_point origin)
      : run_id_(std::move(run_id)), origin_(origin) {}

  /// Hands out a span id before the span ends, so its children can name
  /// it as their parent.
  int Open() { return next_id_++; }

  /// Records a finished span under an id from Open().
  void Close(int id, const std::string& name, const std::string& cat,
             int parent, Clock::time_point start, Clock::time_point end,
             const std::vector<std::pair<std::string, double>>& args) {
    std::ostringstream e;
    e << "{\"name\":" << JsonEscape(name) << ",\"cat\":\"" << cat
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << Micros(start)
      << ",\"dur\":" << Micros(end) - Micros(start) << ",\"args\":{"
      << "\"span_id\":" << id << ",\"parent\":" << parent
      << ",\"run_id\":" << JsonEscape(run_id_);
    for (const auto& [k, v] : args) e << ",\"" << k << "\":" << JsonNumber(v);
    e << "}}";
    events_.push_back(e.str());
  }

  /// Records a finished span without children.
  void Add(const std::string& name, const std::string& cat, int parent,
           Clock::time_point start, Clock::time_point end,
           const std::vector<std::pair<std::string, double>>& args) {
    Close(Open(), name, cat, parent, start, end, args);
  }

  /// A counter sample (one Perfetto counter track per name).
  void Sample(const std::string& name, Clock::time_point at, double value) {
    std::ostringstream e;
    e << "{\"name\":\"" << name << "\",\"ph\":\"C\",\"pid\":1,\"tid\":1,"
      << "\"ts\":" << Micros(at) << ",\"args\":{\"value\":" << JsonNumber(value)
      << "}}";
    events_.push_back(e.str());
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run_id\":"
        << JsonEscape(run_id_) << "},\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  long long Micros(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
        .count();
  }

  std::string run_id_;
  Clock::time_point origin_;
  int next_id_ = 1;
  std::vector<std::string> events_;
};

/// Per-layer counter deltas a span carries, plus the levels sampled at its
/// end.
std::vector<std::pair<std::string, double>> SliceArgs(const Reading& a,
                                                      const Reading& b) {
  auto d = [&](const std::string& row) { return b.Row(row) - a.Row(row); };
  return {
      {"sim_start_s", ToSeconds(a.now)},
      {"sim_end_s", ToSeconds(b.now)},
      {"sim.events_executed", b.executed - a.executed},
      {"sim.events_cancelled", b.cancelled - a.cancelled},
      {"grid.glidein.started", d("grid.glidein.started")},
      {"grid.node.preempted", d("grid.node.preempted")},
      {"net.delivered_mib", (b.delivered - a.delivered) / kMiB},
      {"hdfs.heartbeat.received", d("hdfs.heartbeat.received")},
      {"hdfs.block.placed", d("hdfs.block.placed")},
      {"hdfs.replication.completed", d("hdfs.replication.completed")},
      {"mr.attempt.launched", d("mr.attempt.launched")},
      {"mr.shuffle.fetched", d("mr.shuffle.fetched")},
      {"check.audits", d("check.audits")},
      {"sim.queued", b.queued},
      {"net.active_flows", b.active_flows},
      {"hdfs.under_replicated", b.under_replicated},
  };
}

// ---- The run ------------------------------------------------------------

/// What one run leaves behind for the report.
struct Outcome {
  bool traced = false;
  bool reached = false;
  int jobs = 0;
  workload::WorkloadResult result;
  Clock::time_point start;
  Reading built, spun, prepared, ran, end;  // after each phase
  double final_audit_s = 0;
  std::uint64_t outputs_lost = 0;
  double storage_used = 0;  // bytes
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_skipped = 0;
  std::uint64_t audits = 0;
  std::uint64_t violations = 0;
  double heal_s = 0;  // traced runs only
};

Outcome Run(const std::string& workload, std::uint64_t seed,
            const std::string& trace_out) {
  Outcome o;
  o.traced = !trace_out.empty();
  o.start = Clock::now();
  SpanLog spans(workload + "/seed" + std::to_string(seed), o.start);
  const int root = spans.Open();

  // construct
  ClusterSpec spec = MakeCluster(workload);
  hog::HogCluster cluster(seed, std::move(spec.config));
  std::unique_ptr<check::Auditor> auditor;
  if (spec.audit) {
    check::Auditor::Options aopts;
    aopts.fail_fast = true;
    aopts.period = 30 * kSecond;
    auditor = std::make_unique<check::Auditor>(
        cluster.sim(), &cluster.namenode(), &cluster.jobtracker(),
        &cluster.grid(), aopts);
    auditor->Start();
  }
  o.built = Read(cluster);
  spans.Add("HogCluster()", "hog", root, o.start, o.built.host, {});

  // Counter tracks sampled at every slice end.
  auto sample = [&spans](const Reading& at) {
    spans.Sample("sim.queued", at.host, at.queued);
    spans.Sample("net.active_flows", at.host, at.active_flows);
    spans.Sample("grid.nodes.running", at.host, at.running_nodes);
    spans.Sample("hdfs.under_replicated", at.host, at.under_replicated);
  };

  // spinup: the paper waits for the configured maximum, falling back to
  // 95 % under churn.
  cluster.RequestNodes(spec.nodes);
  const int spin_span = spans.Open();
  auto wait = [&](int count, SimTime deadline) {
    if (!o.traced) return cluster.WaitForNodes(count, deadline);
    // Slices end on the same 1 s grid WaitForNodes steps on.
    while (true) {
      const Reading a = Read(cluster);
      const bool ok = cluster.WaitForNodes(
          count, std::min<SimTime>(cluster.sim().now() + kSlice, deadline));
      const Reading b = Read(cluster);
      spans.Add("spinup.slice", "sim", spin_span, a.host, b.host,
                SliceArgs(a, b));
      sample(b);
      if (ok) return true;
      if (cluster.sim().now() >= deadline) return false;
    }
  };
  o.reached = wait(spec.nodes, kSpinUpDeadline) ||
              wait(spec.nodes * 95 / 100,
                   cluster.sim().now() + kSpinUpDeadline);
  o.spun = Read(cluster);
  spans.Close(spin_span, "RequestNodes+WaitForNodes", "grid", root,
              o.built.host, o.spun.host, SliceArgs(o.built, o.spun));

  // prepare
  workload::WorkloadConfig wl;
  const Inputs inputs = MakeInputs(workload, seed, wl);
  o.jobs = static_cast<int>(inputs.schedule.size());
  workload::WorkloadRunner runner(cluster.sim(), cluster.jobtracker(),
                                  cluster.namenode(), wl);
  std::unique_ptr<fault::FaultInjector> injector;
  if (o.reached) {
    runner.PrepareInputs(inputs.schedule);
    if (!inputs.scenario.empty()) {
      injector = std::make_unique<fault::FaultInjector>(
          cluster.sim(),
          fault::InjectorTargets{&cluster.grid(), &cluster.network(),
                                 &cluster.namenode(), &cluster.jobtracker()},
          inputs.scenario);
      injector->Arm();
    }
  }
  o.prepared = Read(cluster);
  spans.Add("PrepareInputs", "hdfs", root, o.spun.host, o.prepared.host,
            SliceArgs(o.spun, o.prepared));

  // workload
  const int run_span = spans.Open();
  if (o.reached) {
    runner.SubmitAll(inputs.schedule);
    const SimTime deadline = cluster.sim().now() + kRunDeadline;
    if (!o.traced) {
      o.result = runner.Run(deadline);
    } else {
      sim::Simulation& sim = cluster.sim();
      hdfs::Namenode& nn = cluster.namenode();
      SimTime first_burst = -1;
      for (const fault::TimedAction& a : inputs.scenario.actions) {
        if (first_burst < 0 || a.at < first_burst) first_burst = a.at;
      }
      if (first_burst >= 0) first_burst += o.prepared.now;
      // Burst victims are declared dead only after the heartbeat recheck,
      // so healing starts when the queue first fills after the burst.
      SimTime heal_start = -1;
      SimTime heal_end = -1;
      auto done = [&] {
        if (first_burst >= 0 && sim.now() >= first_burst && heal_end < 0) {
          const bool queued = nn.under_replicated() > 0;
          if (heal_start < 0 && queued) heal_start = sim.now();
          if (heal_start >= 0 && !queued) heal_end = sim.now();
        }
        return runner.Done();
      };
      bool finished = false;
      while (!finished && sim.now() < deadline) {
        const Reading a = Read(cluster);
        finished = workload::RunSimUntil(
            sim, done, std::min<SimTime>(sim.now() + kSlice, deadline));
        const Reading b = Read(cluster);
        spans.Add("workload.slice", "mapreduce", run_span, a.host, b.host,
                  SliceArgs(a, b));
        sample(b);
      }
      o.result = runner.Collect();
      o.result.completed = finished;
      // Still healing at workload end: report the time healed so far.
      if (heal_start >= 0) {
        o.heal_s = ToSeconds((heal_end >= 0 ? heal_end : sim.now()) -
                             heal_start);
      }
    }
  }
  o.ran = Read(cluster);
  spans.Close(run_span, "SubmitAll+Run", "mapreduce", root, o.prepared.host,
              o.ran.host, SliceArgs(o.prepared, o.ran));

  // End-of-run checks over the settled cluster.
  if (auditor != nullptr) {
    auditor->AuditNow();
    const Clock::time_point audited = Clock::now();
    o.final_audit_s = Seconds(o.ran.host, audited);
    spans.Add("Auditor::AuditNow", "check", root, o.ran.host, audited, {});
    o.audits = auditor->audits_run();
    o.violations = auditor->violations();
  }
  if (injector != nullptr) {
    o.faults_injected = injector->injected();
    o.faults_skipped = injector->skipped();
  }
  o.outputs_lost = OutputsLost(cluster);
  o.storage_used = StorageUsedBytes(cluster);
  o.end = Read(cluster);
  spans.Close(root, "run", "bench", 0, o.start, o.end.host, {});
  if (o.traced && !spans.Write(trace_out)) {
    throw std::runtime_error("cannot write trace to " + trace_out);
  }
  return o;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Counter deltas over one phase.
struct PhaseDelta {
  const Reading& a;
  const Reading& b;
  double host_s() const { return Seconds(a.host, b.host); }
  double sim_s() const { return ToSeconds(b.now - a.now); }
  double executed() const { return b.executed - a.executed; }
  double cancelled() const { return b.cancelled - a.cancelled; }
  double delivered_gib() const { return (b.delivered - a.delivered) / kGiBf; }
  double row(const std::string& name) const {
    return b.Row(name) - a.Row(name);
  }
};

int JobsFailed(const Outcome& o) {
  return o.jobs - o.result.succeeded;  // failed + never terminal
}

std::vector<Metric> Metrics(const Outcome& o) {
  const PhaseDelta spin{o.built, o.spun};
  const PhaseDelta prep{o.spun, o.prepared};
  const PhaseDelta work{o.prepared, o.ran};
  const Reading& end = o.end;
  auto mean = [&end](const std::string& histogram) {
    return Ratio(end.Row(histogram + ".sum"), end.Row(histogram + ".count"),
                 0);
  };
  std::vector<Metric> m;
  auto add = [&m](std::string name, std::string unit, double v) {
    m.push_back({std::move(name), std::move(unit), v});
  };
  // End to end.
  add("setup_s", "s", Seconds(o.start, o.prepared.host));
  add("run_s", "s", work.host_s());
  add("peak_rss_mib", "MiB", PeakRssMib());
  // The run's simulated result.
  add("response_s", "sim_s", o.result.response_time_s);
  add("jobs_failed_frac", "fraction", Ratio(JobsFailed(o), o.jobs, 0));
  add("outputs_lost", "count", static_cast<double>(o.outputs_lost));
  // hog
  add("construct.host_s", "s", Seconds(o.start, o.built.host));
  // sim, per phase
  add("spinup.host_s", "s", spin.host_s());
  add("prepare.host_s", "s", prep.host_s());
  add("workload.host_s", "s", work.host_s());
  add("spinup.sim_s", "sim_s", spin.sim_s());
  add("workload.sim_s", "sim_s", work.sim_s());
  for (const auto& [phase, d] :
       {std::pair<std::string, const PhaseDelta*>{"spinup", &spin},
        {"workload", &work}}) {
    add(phase + ".sim.events_executed", "count", d->executed());
    add(phase + ".sim.events_cancelled", "count", d->cancelled());
    add(phase + ".sim.cancel_ratio", "ratio",
        Ratio(d->cancelled(), d->executed() + d->cancelled(), 0));
    add(phase + ".sim.events_per_host_s", "1/s",
        Ratio(d->executed(), d->host_s(), 0));
    add(phase + ".grid.glidein.started", "count",
        d->row("grid.glidein.started"));
    add(phase + ".grid.node.preempted", "count",
        d->row("grid.node.preempted"));
    add(phase + ".net.delivered_gib", "GiB", d->delivered_gib());
  }
  add("sim.queue_compactions", "count", end.Row("sim.queue.compactions"));
  // grid
  add("grid.glidein.acquire_latency_s", "sim_s",
      mean("grid.glidein.acquire_latency_s"));
  // net
  add("workload.net.cancelled_per_gib", "count/GiB",
      Ratio(work.cancelled(), work.delivered_gib(), 0));
  add("net.topo.fabric_links", "count", end.Row("net.topo.fabric_links"));
  add("net.topo.fabric_stalled_flows", "count",
      end.Row("net.topo.fabric_stalled_flows"));
  // storage
  add("storage.used_gib", "GiB", o.storage_used / kGiBf);
  // hdfs
  add("workload.hdfs.heartbeat.received", "count",
      work.row("hdfs.heartbeat.received"));
  add("prepare.hdfs.block.placed", "count", prep.row("hdfs.block.placed"));
  add("workload.hdfs.block.placed", "count", work.row("hdfs.block.placed"));
  const double repl_ok = end.Row("hdfs.replication.completed");
  const double repl_failed = end.Row("hdfs.replication.failed");
  add("hdfs.replication.completed", "count", repl_ok);
  add("hdfs.replication.failed", "count", repl_failed);
  add("hdfs.replication_success_ratio", "ratio",
      Ratio(repl_ok, repl_ok + repl_failed, 1));
  add("hdfs.repair_gib", "GiB", end.repair / kGiBf);
  add("hdfs.pipeline.recovered", "count", end.Row("hdfs.pipeline.recovered"));
  add("hdfs.deadnode.detection_latency_s", "sim_s",
      mean("hdfs.deadnode.detection_latency_s"));
  if (o.traced) add("hdfs.heal_s", "sim_s", o.heal_s);
  // mapreduce + sched
  const double launched = end.Row("mr.attempt.launched");
  const double succeeded = end.Row("mr.attempt.succeeded");
  const double local = end.Row("mr.map.local");
  const double maps =
      local + end.Row("mr.map.rack") + end.Row("mr.map.remote");
  add("mr.attempt.launched", "count", launched);
  add("mr.attempt.succeeded", "count", succeeded);
  add("mr.attempt_success_ratio", "ratio", Ratio(succeeded, launched, 1));
  add("mr.attempt.speculative", "count", end.Row("mr.attempt.speculative"));
  add("mr.map.reexecuted", "count", end.Row("mr.map.reexecuted"));
  add("mr.map_local_ratio", "ratio", Ratio(local, maps, 0));
  add("mr.shuffle.fetched", "count", end.Row("mr.shuffle.fetched"));
  add("mr.shuffle.gib", "GiB", end.Row("mr.shuffle.bytes") / kGiBf);
  add("mr.attempt.duration_s", "sim_s", mean("mr.attempt.duration_s"));
  add("mr.tracker.detection_latency_s", "sim_s",
      mean("mr.tracker.detection_latency_s"));
  // fault
  add("fault.actions.injected", "count",
      static_cast<double>(o.faults_injected));
  add("fault.skipped", "count", static_cast<double>(o.faults_skipped));
  // check
  add("check.audits", "count", static_cast<double>(o.audits));
  add("check.violations", "count", static_cast<double>(o.violations));
  add("check.final_audit_host_s", "s", o.final_audit_s);
  return m;
}

/// The simulated fingerprint: identical for a (workload, seed) on every
/// build that leaves simulated behaviour unchanged.
std::string Fingerprint(const Outcome& o) {
  const PhaseDelta spin{o.built, o.spun};
  const PhaseDelta work{o.prepared, o.ran};
  std::ostringstream fp;
  fp << "response_s=" << JsonNumber(o.result.response_time_s)
     << ";spinup.executed=" << JsonNumber(spin.executed())
     << ";spinup.cancelled=" << JsonNumber(spin.cancelled())
     << ";workload.executed=" << JsonNumber(work.executed())
     << ";workload.cancelled=" << JsonNumber(work.cancelled())
     << ";blocks_placed=" << JsonNumber(o.end.Row("hdfs.block.placed"))
     << ";attempts=" << JsonNumber(o.end.Row("mr.attempt.launched"));
  return fp.str();
}

std::vector<std::string> Errors(const Outcome& o) {
  std::vector<std::string> errors;
  const int not_terminal = o.jobs - o.result.succeeded - o.result.failed;
  if (!o.reached) errors.push_back("node target (incl. 95% fallback) missed");
  if (not_terminal > 0) {
    errors.push_back(std::to_string(not_terminal) + " job(s) not terminal");
  }
  if (o.violations > 0) {
    errors.push_back(std::to_string(o.violations) + " audit violation(s)");
  }
  if (o.outputs_lost > 0) {
    errors.push_back(std::to_string(o.outputs_lost) +
                     " committed output block(s) lost");
  }
  return errors;
}

void Print(const std::string& workload, std::uint64_t seed, const Outcome& o,
           const std::vector<std::string>& errors) {
  const std::vector<Metric> m = Metrics(o);
  std::ostringstream out;
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"traced\":" << (o.traced ? "true" : "false")
      << ",\"jobs\":" << o.jobs << ",\"jobs_failed\":" << JobsFailed(o)
      << ",\"fingerprint\":\"" << Fingerprint(o) << "\",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out << (i ? "," : "") << JsonEscape(errors[i]);
  }
  out << "],\"metrics\":{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    out << (i ? "," : "") << "\"" << m[i].name << "\":{\"value\":"
        << JsonNumber(m[i].value) << ",\"unit\":\"" << m[i].unit << "\"}";
  }
  out << "}}\n";
  std::fputs(out.str().c_str(), stdout);
}

int Usage() {
  std::fputs("usage: hogperf --workload NAME --seed N [--trace-out PATH]\n",
             stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      try {
        seed = std::stoull(value);
      } catch (const std::exception&) {
        return Usage();
      }
      have_seed = true;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || !have_seed) return Usage();
  try {
    const Outcome outcome = Run(workload, seed, trace_out);
    const std::vector<std::string> errors = Errors(outcome);
    Print(workload, seed, outcome, errors);
    return errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hogperf: %s\n", e.what());
    return 2;
  }
}
