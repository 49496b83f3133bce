// Basic quantities used throughout the simulator: simulated time, byte
// counts, and data rates. Simulated time is an integral microsecond count so
// that event ordering is exact and runs are bit-reproducible.
#pragma once

#include <cstdint>
#include <string>

namespace hogsim {

/// Simulated time in microseconds since simulation start.
using SimTime = std::int64_t;

/// Durations share the representation of SimTime (microsecond ticks).
using SimDuration = std::int64_t;

constexpr SimDuration kMicrosecond = 1;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr SimDuration kMinute = 60 * kSecond;
constexpr SimDuration kHour = 60 * kMinute;

/// Converts a floating-point second count to microsecond ticks (rounded).
constexpr SimDuration FromSeconds(double seconds) {
  return static_cast<SimDuration>(seconds * static_cast<double>(kSecond) + 0.5);
}

/// Converts microsecond ticks to floating-point seconds.
constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Byte counts. Signed so that accounting bugs surface as negatives in
/// assertions instead of wrapping.
using Bytes = std::int64_t;

constexpr Bytes kKiB = 1024;
constexpr Bytes kMiB = 1024 * kKiB;
constexpr Bytes kGiB = 1024 * kMiB;
constexpr Bytes kTiB = 1024 * kGiB;

/// Data rate in bytes per simulated second.
using Rate = double;

constexpr Rate MiBps(double v) { return v * static_cast<double>(kMiB); }

/// Network rates are conventionally quoted in bits per second.
constexpr Rate Gbps(double v) { return v * 1e9 / 8.0; }
constexpr Rate Mbps(double v) { return v * 1e6 / 8.0; }

/// Time needed to move `bytes` at `rate`, rounded up to a whole tick so a
/// transfer never completes before all bytes have moved.
constexpr SimDuration TransferTime(Bytes bytes, Rate rate) {
  if (bytes <= 0) return 0;
  const double secs = static_cast<double>(bytes) / rate;
  const double ticks = secs * static_cast<double>(kSecond);
  auto whole = static_cast<SimDuration>(ticks);
  return (static_cast<double>(whole) < ticks) ? whole + 1 : whole;
}

/// Human-readable rendering, e.g. "3.25 GiB" / "812.0 MiB".
std::string FormatBytes(Bytes b);

/// Human-readable rendering, e.g. "1h02m", "43.1s".
std::string FormatDuration(SimDuration d);

}  // namespace hogsim
