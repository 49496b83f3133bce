#include "src/util/rng.h"

#include <cassert>
#include <cmath>

namespace hogsim {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// FNV-1a, used only to mix fork labels into the seed.
std::uint64_t HashLabel(std::string_view label) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::uint64_t MixHash(std::uint64_t x) {
  return SplitMix64(x);  // advances the local copy; stateless to callers
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = SplitMix64(x);
}

Rng Rng::Fork(std::string_view label) {
  // Draw fresh material from this stream and mix in the label so that two
  // forks with different labels are independent even when created
  // back-to-back.
  const std::uint64_t h = HashLabel(label);
  std::uint64_t x = Next() ^ h;
  const std::uint64_t a = SplitMix64(x);
  const std::uint64_t b = SplitMix64(x);
  const std::uint64_t c = SplitMix64(x);
  const std::uint64_t d = SplitMix64(x);
  return Rng(a, b, c, d);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(Next());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t v;
  do {
    v = Next();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::Chance(double probability) {
  return NextDouble() < probability;
}

std::size_t Rng::WeightedIndex(const double* weights, std::size_t n) {
  assert(n > 0);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += weights[i];
  double r = NextDouble() * total;
  for (std::size_t i = 0; i < n; ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return n - 1;
}

}  // namespace hogsim
