// Observability bundle (hog::obs) and the per-run capture bridge.
//
// Every sim::Simulation owns one Observability — a MetricsRegistry plus a
// Tracer — so any subsystem holding the usual Simulation reference reaches
// both via sim.obs() with no constructor plumbing. Metrics are always on
// (plain counter increments, see metrics.h); tracing is off unless
// something enables it.
//
// The bench runner (exp::RunExperiment) never sees the Simulation objects
// its run functions construct internally, so output is delivered through a
// thread-local RunCapture: the harness installs one per run, the
// Simulation constructor consults RunCapture::Current() to decide whether
// to enable tracing, and the Simulation destructor delivers the metrics
// snapshot and trace export into the capture. First delivery wins: with
// several Simulations in one run (rare), the one destroyed first reports.
// Benches construct one cluster per run, so the ambiguity does not arise;
// a run function needing finer control can call
// RunCapture::Current()->Deliver(...) explicitly before its Simulation
// dies.
//
// Thread-safety: RunCapture is thread-local, matching exp::RunSweep's
// one-run-per-worker-thread model; a capture must be installed and
// consumed on the same thread.
#pragma once

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace hogsim::obs {

/// The per-Simulation observability bundle.
class Observability {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
};

/// RAII scope that collects one run's observability output.
///
///   obs::RunCapture capture(/*want_metrics=*/true, /*want_trace=*/true);
///   fn(config, seed);                    // builds + destroys a Simulation
///   capture.metrics_json();              // snapshot, or "" if none ran
///   capture.trace_json();                // Chrome trace, or ""
///
/// Installs itself as RunCapture::Current() for the constructing thread and
/// restores the previous capture (scopes nest) on destruction.
class RunCapture {
 public:
  RunCapture(bool want_metrics, bool want_trace);
  ~RunCapture();
  RunCapture(const RunCapture&) = delete;
  RunCapture& operator=(const RunCapture&) = delete;

  /// The innermost live capture on this thread, or nullptr.
  static RunCapture* Current();

  bool want_trace() const { return want_trace_; }

  /// Called by ~Simulation (or explicitly by a run function). Only the
  /// first delivery is kept.
  void Deliver(const Observability& obs);

  bool delivered() const { return delivered_; }
  const std::string& metrics_json() const { return metrics_json_; }
  const std::string& trace_json() const { return trace_json_; }

 private:
  bool want_metrics_ = false;
  bool want_trace_ = false;
  bool delivered_ = false;
  std::string metrics_json_;
  std::string trace_json_;
  RunCapture* previous_ = nullptr;
};

}  // namespace hogsim::obs
