#include "tensor/rng.h"

#include <cassert>
#include <cmath>

namespace fedtrip {

float Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller on (0,1] uniforms to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = static_cast<float>(r * std::sin(theta));
  has_cached_normal_ = true;
  return static_cast<float>(r * std::cos(theta));
}

double Rng::gamma(double alpha) {
  assert(alpha > 0.0);
  if (alpha < 1.0) {
    // Boost to alpha+1 then apply the standard shape correction.
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return gamma(alpha + 1.0) * std::pow(u, 1.0 / alpha);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x;
    double v;
    do {
      x = static_cast<double>(normal());
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::dirichlet(double alpha, std::size_t k) {
  std::vector<double> p(k);
  double sum = 0.0;
  for (auto& v : p) {
    v = gamma(alpha);
    sum += v;
  }
  if (sum <= 0.0) {
    // Degenerate draw (all zeros): fall back to uniform.
    for (auto& v : p) v = 1.0 / static_cast<double>(k);
    return p;
  }
  for (auto& v : p) v /= sum;
  return p;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  shuffle(idx);
  return idx;
}

namespace {

// The partial Fisher-Yates shuffle of Rng::sample_without_replacement over
// a sparse map: a position never swapped still holds its own index, so
// only displaced positions are stored — in an open-addressing table
// (linear probing, Fibonacci hashing) of at least 2k slots, O(k) instead
// of filling all n. Out of line, so the dense path's code does not
// depend on it.
[[gnu::noinline]] std::vector<std::size_t> sample_sparse(Rng& rng,
                                                         std::size_t n,
                                                         std::size_t k) {
  constexpr std::size_t kFree = ~std::size_t{0};
  struct Slot {
    std::size_t pos = kFree;
    std::size_t value = 0;
  };
  int bits = 4;
  while ((std::size_t{1} << bits) < 2 * k) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<Slot> table(mask + 1);
  const auto slot = [&](std::size_t p) -> Slot& {
    std::size_t h = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(p) * 0x9E3779B97F4A7C15ull) >>
        (64 - bits));
    while (table[h].pos != kFree && table[h].pos != p) h = (h + 1) & mask;
    return table[h];
  };
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.uniform_int(n - i);
    const Slot& at_i = slot(i);
    const std::size_t held = at_i.pos == kFree ? i : at_i.value;
    Slot& at_j = slot(j);
    out.push_back(at_j.pos == kFree ? j : at_j.value);
    at_j = Slot{j, held};
  }
  return out;
}

}  // namespace

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over the identity array [0, n): step i swaps
  // position i with a uniform position j in [i, n) and emits position i,
  // which no later step reads. Both paths make the same draws and swaps.
  if (k < n / kSparseSampleRatio) return sample_sparse(*this, n, k);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + uniform_int(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace fedtrip
