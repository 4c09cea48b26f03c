// Deterministic random number generation for reproducible experiments.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "sim/time.h"

namespace acdc::sim {

// SplitMix64 finaliser; decorrelates nearby seeds so substreams derived
// from (seed, stream) pairs are statistically independent.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  std::uint64_t seed() const { return seed_; }

  // Derives an independent substream from the *construction* seed and a
  // stream id. Does not touch (and is not affected by) this Rng's engine
  // state, so split streams stay reproducible no matter how many draws
  // interleave — the property the scenario fuzzer's fault injection relies
  // on (toggling one consumer must not shift the others).
  Rng split(std::uint64_t stream) const { return Rng(mix_seed(seed_, stream)); }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  // Bernoulli trial with success probability p in [0, 1].
  bool chance(double p);

  // Exponentially distributed with the given mean (> 0).
  double exponential(double mean);

  // Exponential inter-arrival gap as simulated Time with mean `mean`.
  Time exponential_gap(Time mean);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace acdc::sim
