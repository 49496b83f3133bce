// Sim-time event tracer (hog::obs).
//
// A Tracer is a bounded ring buffer of POD records stamped with *simulated*
// time. Three record kinds map one-to-one onto Chrome trace-event phases:
//
//   span     — something with sim-time extent (a task attempt, a glidein
//              startup, a re-replication transfer); exported as a complete
//              event ("ph":"X") with ts/dur.
//   instant  — a point event (a preemption, a dead-node declaration);
//              exported as "ph":"i".
//   counter  — a sampled level (running-node count); exported as "ph":"C",
//              which chrome://tracing / Perfetto render as an area chart —
//              this is how the Fig. 5 node-fluctuation curve is read
//              straight off a trace (docs/OBSERVABILITY.md).
//
// SimTime is already a microsecond count (src/util/units.h) and the trace
// format's ts/dur are microseconds, so timestamps map through unchanged.
//
// Cost model: when disabled (the default) every Emit* call is one branch
// and returns. When enabled, one wrap check plus a 48-byte POD store; no
// allocation after Reserve. When the buffer is full the ring wraps: the
// *oldest* records are overwritten (and counted as dropped), keeping the
// newest `capacity` events — flight-recorder semantics, so the state just
// before the end of a run always survives.
//
// Category/name lifetime: records store `const char*` without copying, so
// callers must pass pointers that outlive the Tracer — in practice string
// literals, the same static-string convention as Chrome's TRACE_EVENT
// macros. Thread-safety: none; one Tracer per single-threaded Simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/units.h"

namespace hogsim::obs {

/// One trace record. POD: the ring buffer is a flat vector of these.
struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kInstant, kCounter };
  const char* category = "";  ///< subsystem ("grid", "hdfs", "mr", "sim")
  const char* name = "";      ///< event name; static string, not copied
  SimTime start = 0;          ///< sim-time ticks (µs)
  SimDuration duration = 0;   ///< kSpan only; ticks (µs)
  std::uint64_t entity = 0;   ///< node/tracker/task id; exported as tid
  double value = 0;           ///< kCounter only: the sampled level
  Kind kind = Kind::kInstant;
};

class Tracer {
 public:
  /// Capacity 0 keeps the tracer permanently disabled (no storage).
  explicit Tracer(std::size_t capacity = 0) { Reserve(capacity); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// (Re)allocates the ring. Discards previously buffered events.
  void Reserve(std::size_t capacity);

  /// Turns recording on/off. Enabling with zero capacity allocates the
  /// default ring (kDefaultCapacity events).
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Records a completed sim-time interval [start, start + duration).
  void EmitSpan(const char* category, const char* name, SimTime start,
                SimDuration duration, std::uint64_t entity = 0) {
    if (!enabled_) return;
    Push({category, name, start, duration, entity, 0, TraceEvent::Kind::kSpan});
  }

  /// Records a point event at sim-time `at`.
  void EmitInstant(const char* category, const char* name, SimTime at,
                   std::uint64_t entity = 0) {
    if (!enabled_) return;
    Push({category, name, at, 0, entity, 0, TraceEvent::Kind::kInstant});
  }

  /// Records a counter sample (level `value` at sim-time `at`). Emit one
  /// sample per change; the viewer draws steps between samples.
  void EmitCounter(const char* category, const char* name, SimTime at,
                   double value) {
    if (!enabled_) return;
    Push({category, name, at, 0, 0, value, TraceEvent::Kind::kCounter});
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Oldest events overwritten because the ring wrapped.
  std::uint64_t dropped() const { return dropped_; }

  /// Buffered events in emission order (oldest first).
  std::vector<TraceEvent> Events() const;

  /// Serializes buffered events as Chrome trace-event JSON
  /// ({"traceEvents": [...], "displayTimeUnit": "ms"}), loadable in
  /// chrome://tracing and https://ui.perfetto.dev. pid = category, tid =
  /// entity id; process_name metadata rows label each category. Emits no
  /// boolean literals so exp::ParseJson round-trips the output.
  std::string ExportChromeJson() const;

 private:
  void Push(const TraceEvent& ev) {
    if (ring_.empty()) {
      ++dropped_;
      return;
    }
    ring_[head_] = ev;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;  // wrapped: the oldest record was just overwritten
    }
  }

  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  bool enabled_ = false;
};

}  // namespace hogsim::obs
