// The benchmark's own statistics: order statistics over per-round and
// per-call samples, layer shares of the round-loop wall, and the
// failed-dispatch ratio.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
double median(std::vector<double> v);

/// Nearest-rank percentile `p` in (0, 1) of `v`, reported only when at
/// least `min_beyond` samples lie above its rank, so a tail figure always
/// rests on that many observations. nullopt otherwise.
std::optional<double> tail_percentile(std::vector<double> v, double p,
                                      std::size_t min_beyond = 10);

/// Smallest sample count for which tail_percentile(p, min_beyond) reports.
std::size_t samples_for_tail(double p, std::size_t min_beyond = 10);

/// Tail percentile of samples in the order they were taken, robust to a
/// burst of host load: `v` is cut into consecutive blocks of
/// samples_for_tail(p, min_beyond) samples (the remainder joins the last
/// block), and the median of the blocks' tail_percentile is returned. A
/// burst then moves the figure only when it covers half of the blocks.
/// nullopt when `v` does not fill one block.
std::optional<double> blocked_tail_percentile(const std::vector<double>& v,
                                              double p,
                                              std::size_t min_beyond = 10);

/// One timed layer: total busy seconds, call count and per-call p50.
struct LayerTime {
  std::string name;
  double total_s = 0.0;
  std::size_t calls = 0;
  double p50_s = 0.0;
};

/// The rows of a traced run: every timed Host call plus the scheduler's
/// own time, `self` = loop wall minus the timed calls. Shares are of
/// `loop_s`. The timed calls never overlap and all lie inside the loop, so
/// a negative self time means the timing itself is wrong.
struct LayerTable {
  std::vector<LayerTime> rows;
  double loop_s = 0.0;
  double self_s() const;
  double share(const LayerTime& row) const;
};

/// Failed dispatches over attempted; 0 for a run that attempted nothing.
double failed_ratio(std::uint64_t attempted, std::uint64_t failed);

}  // namespace perfbench
