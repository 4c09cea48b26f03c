#include "sim/rng.h"

#include <cassert>

namespace acdc::sim {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 (Steele et al.); the golden-ratio stride keeps consecutive
  // stream ids far apart before the avalanche rounds.
  std::uint64_t z = seed + (stream + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::uniform_real(double lo, double hi) {
  assert(lo <= hi);
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

Time Rng::exponential_gap(Time mean) {
  return static_cast<Time>(exponential(static_cast<double>(mean)));
}

}  // namespace acdc::sim
