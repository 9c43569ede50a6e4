#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lower + upper);
}

namespace {

/// 1-based nearest rank of percentile p among n samples.
std::size_t nearest_rank(double p, std::size_t n) {
  const auto r = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

std::optional<double> tail_percentile(std::vector<double> v, double p,
                                      std::size_t min_beyond) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("percentile must lie in (0, 1)");
  }
  if (v.empty()) return std::nullopt;
  const std::size_t rank = nearest_rank(p, v.size());
  if (v.size() - rank < min_beyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

std::size_t samples_for_tail(double p, std::size_t min_beyond) {
  std::size_t n = min_beyond + 1;
  while (n - nearest_rank(p, n) < min_beyond) ++n;
  return n;
}

std::optional<double> blocked_tail_percentile(const std::vector<double>& v,
                                              double p,
                                              std::size_t min_beyond) {
  const std::size_t block = samples_for_tail(p, min_beyond);
  const std::size_t blocks = v.size() / block;
  if (blocks == 0) return std::nullopt;
  std::vector<double> tails;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t end = b + 1 == blocks ? v.size() : (b + 1) * block;
    tails.push_back(*tail_percentile(
        std::vector<double>(v.begin() + b * block, v.begin() + end), p,
        min_beyond));
  }
  return median(tails);
}

double LayerTable::self_s() const {
  double timed = 0.0;
  for (const auto& r : rows) timed += r.total_s;
  return loop_s - timed;
}

double LayerTable::share(const LayerTime& row) const {
  return loop_s > 0.0 ? row.total_s / loop_s : 0.0;
}

double failed_ratio(std::uint64_t attempted, std::uint64_t failed) {
  if (failed > attempted) {
    throw std::invalid_argument("more failed dispatches than attempted");
  }
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench
