// Channel: the transport every broadcast and client update flows through.
//
// A channel encodes a float vector with the direction's compressor, accounts
// the exact wire bytes (per delivered copy — a broadcast to K clients is one
// encode, K deliveries), and hands the receiver the decoded floats. The
// lossless path never copies: the caller's vector is left bit-identical and
// only the accounting runs, which is what makes the default identity
// channel reproduce uncompressed runs exactly.
//
// Each direction's compressor is optionally wrapped in error feedback
// (EF-SGD / EF21 style): the codec's residual x - decode(encode(x)) is
// accumulated per sender stream and added to that stream's next payload, so
// every coordinate's error is eventually transmitted. EF changes no wire
// bytes — only what the values carry — and is a no-op around lossless
// codecs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "comm/compressor.h"
#include "comm/config.h"

namespace fedtrip::obs {
class Tracer;
}  // namespace fedtrip::obs

namespace fedtrip::comm {

enum class Direction { kDown, kUp };

/// Per-direction byte accounting, exact to the byte.
struct ChannelStats {
  std::size_t bytes_down = 0;
  std::size_t bytes_up = 0;
  std::size_t messages_down = 0;
  std::size_t messages_up = 0;
  /// Uncompressed side-channel floats (algorithm extras, e.g. SCAFFOLD's
  /// control variates). Their bytes are already included in bytes_*.
  std::size_t raw_floats_down = 0;
  std::size_t raw_floats_up = 0;

  double mb_down() const { return static_cast<double>(bytes_down) / 1e6; }
  double mb_up() const { return static_cast<double>(bytes_up) / 1e6; }
  double total_mb() const { return mb_down() + mb_up(); }
};

class Channel {
 public:
  Channel(CompressorPtr downlink, CompressorPtr uplink, bool ef_down = false,
          bool ef_up = false);

  std::string name() const;

  /// True when `transmit` in this direction is a bit-identical no-op on the
  /// payload (accounting still runs). Callers may skip defensive copies,
  /// and the uplink skips the delta round-trip, which would re-round floats
  /// for no fidelity gain.
  bool lossless(Direction dir) const { return compressor(dir).lossless(); }

  /// Data-independent wire bytes of one dim-float message in `dir` (every
  /// built-in codec's size is a pure function of dim) — what schedulers use
  /// to predict arrival times before any payload exists.
  std::size_t message_bytes(Direction dir, std::size_t dim) const {
    return compressor(dir).wire_bytes(dim);
  }

  /// Sends `x` through the channel, replacing it in place with what the
  /// receiver decodes (lossless directions leave it untouched). Records
  /// `copies` deliveries of the same encoding — broadcast fan-out — and
  /// returns the wire bytes of one copy. `rng` drives stochastic codecs.
  /// `stream` identifies the sender's logical stream (client id on the
  /// uplink): error-feedback state is accumulated per (direction, stream).
  std::size_t transmit(Direction dir, std::vector<float>& x, Rng& rng,
                       std::size_t copies = 1, std::size_t stream = 0);

  /// Accounts `floats` uncompressed side-channel floats (algorithm extras
  /// the channel does not transform).
  void account_raw(Direction dir, std::size_t floats);

  const ChannelStats& stats() const { return stats_; }

  /// Attaches an observability sink (non-owning, nullptr = off): compress
  /// spans, per-codec byte counters, EF residual gauges. Never changes what
  /// the channel transmits or accounts.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  bool error_feedback(Direction dir) const {
    return dir == Direction::kDown ? ef_down_ : ef_up_;
  }
  /// Accumulated EF residual of a stream (empty before its first transmit).
  const std::vector<float>& residual(Direction dir, std::size_t stream) const;
  /// Streams with a materialized EF residual in `dir`. Residual state is
  /// sparse by contract — keyed by sender stream, allocated on that
  /// stream's first lossy transmit — so at scale this tracks participants,
  /// never the population. The memory-ceiling tests pin this down.
  std::size_t residual_streams(Direction dir) const {
    return (dir == Direction::kDown ? residual_down_ : residual_up_).size();
  }
  /// Total floats held across all residuals of `dir` — the footprint gauge
  /// behind the O(active) memory claim.
  std::size_t residual_floats(Direction dir) const;

 private:
  const Compressor& compressor(Direction dir) const {
    return dir == Direction::kDown ? *down_ : *up_;
  }
  void record(Direction dir, std::size_t wire_bytes, std::size_t copies);
  /// Encodes `x` (plus the stream's residual under EF), stores the new
  /// residual, returns the wire bytes and leaves the decode in *decoded.
  std::size_t encode(Direction dir, const std::vector<float>& x, Rng& rng,
                     std::size_t stream, std::vector<float>* decoded);

  CompressorPtr down_;
  CompressorPtr up_;
  bool ef_down_;
  bool ef_up_;
  std::unordered_map<std::size_t, std::vector<float>> residual_down_;
  std::unordered_map<std::size_t, std::vector<float>> residual_up_;
  ChannelStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

using ChannelPtr = std::unique_ptr<Channel>;

}  // namespace fedtrip::comm
