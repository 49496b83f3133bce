// Deterministic random number generation.
//
// The simulator never touches std::random_device or the global clock: every
// stochastic component draws from an Rng seeded from the experiment
// configuration, so a (config, seed) pair fully determines a run. The
// generator is xoshiro256**, which is fast, has a 256-bit state, and —
// unlike the standard library distributions — gives identical streams on
// every platform because the distribution transforms below are hand-rolled.
#pragma once

#include <cstdint>
#include <string_view>

namespace hogsim {

/// Stateless 64-bit mix (the SplitMix64 finalizer). Deterministic
/// "randomness" for fault injection that must stay RNG-neutral: hashing a
/// (node, sequence) pair gives seed-independent per-event jitter without
/// touching any component's Rng stream.
std::uint64_t MixHash(std::uint64_t x);

class Rng {
 public:
  /// Seeds the state from `seed` via SplitMix64 so that nearby seeds still
  /// give decorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Derives an independent child stream; used to give each simulated
  /// component its own generator so that adding a component never perturbs
  /// the draws seen by another.
  Rng Fork(std::string_view label);

  /// Uniform 64-bit draw.
  std::uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Bernoulli trial.
  bool Chance(double probability);

  /// Index in [0, weights_size) drawn proportionally to `weights`.
  std::size_t WeightedIndex(const double* weights, std::size_t n);

 private:
  explicit Rng(std::uint64_t s0, std::uint64_t s1, std::uint64_t s2,
               std::uint64_t s3)
      : s_{s0, s1, s2, s3} {}

  std::uint64_t s_[4];
};

}  // namespace hogsim
