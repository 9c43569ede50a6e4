// Rng: deterministic, splittable random number generator (xoshiro256**).
//
// FL experiments need *stream splitting*: every (trial, round, client) tuple
// gets an independent stream so that results are bit-identical regardless of
// how many worker threads execute the clients. std::mt19937 has no cheap
// split, so we use xoshiro256** seeded through splitmix64, the reference
// seeding procedure.
#pragma once

#include <cstdint>
#include <vector>

namespace fedtrip {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  /// Derives an independent stream for a logical sub-task. Mixing the key via
  /// splitmix64 guarantees distinct, well-separated seeds.
  Rng split(std::uint64_t key) const {
    std::uint64_t z = state_[0] ^ (key + 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng(z ^ (z >> 31));
  }

  std::uint64_t next_u64() {
    auto rotl = [](std::uint64_t v, int k) {
      return (v << k) | (v >> (64 - k));
    };
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) {
    return lo + static_cast<float>(uniform()) * (hi - lo);
  }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) {
    // Lemire-style rejection-free bounded sampling is overkill here; modulo
    // bias is < 2^-40 for the ranges used in this library.
    return next_u64() % n;
  }

  /// Standard normal via Box-Muller (cached second value).
  float normal();

  /// Normal with mean/stddev.
  float normal(float mean, float stddev) { return mean + stddev * normal(); }

  /// Samples from a Gamma(alpha, 1) distribution (Marsaglia-Tsang).
  double gamma(double alpha);

  /// Samples a probability vector from Dirichlet(alpha * ones(k)).
  std::vector<double> dirichlet(double alpha, std::size_t k);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_int(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices uniformly from [0, n) (k <= n): a partial
  /// Fisher-Yates shuffle, in draw order. Below k = n / kSparseSampleRatio
  /// only the displaced positions are stored (O(k)); otherwise all n are.
  /// Both paths give the same indices and leave the stream in the same
  /// state.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);
  static constexpr std::size_t kSparseSampleRatio = 32;

 private:
  std::uint64_t state_[4]{};
  bool has_cached_normal_ = false;
  float cached_normal_ = 0.0f;
};

}  // namespace fedtrip
