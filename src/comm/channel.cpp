#include "comm/channel.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/tracer.h"
#include "tensor/vec_math.h"

namespace fedtrip::comm {

namespace {

const char* dir_name(Direction dir) {
  return dir == Direction::kDown ? "down" : "up";
}

}  // namespace

Channel::Channel(CompressorPtr downlink, CompressorPtr uplink, bool ef_down,
                 bool ef_up)
    : down_(std::move(downlink)),
      up_(std::move(uplink)),
      ef_down_(ef_down),
      ef_up_(ef_up) {
  if (!down_ || !up_) {
    throw std::invalid_argument("channel needs a compressor per direction");
  }
}

std::string Channel::name() const {
  const std::string d = (ef_down_ ? "ef+" : "") + down_->name();
  const std::string u = (ef_up_ ? "ef+" : "") + up_->name();
  return "down:" + d + "/up:" + u;
}

void Channel::account_raw(Direction dir, std::size_t floats) {
  if (floats == 0) return;
  if (dir == Direction::kDown) {
    stats_.raw_floats_down += floats;
    stats_.bytes_down += 4 * floats;
  } else {
    stats_.raw_floats_up += floats;
    stats_.bytes_up += 4 * floats;
  }
  if (tracer_ != nullptr) {
    tracer_->count(std::string("comm.bytes_") + dir_name(dir), 4 * floats);
  }
}

void Channel::record(Direction dir, std::size_t wire_bytes,
                     std::size_t copies) {
  if (dir == Direction::kDown) {
    stats_.bytes_down += wire_bytes * copies;
    stats_.messages_down += copies;
  } else {
    stats_.bytes_up += wire_bytes * copies;
    stats_.messages_up += copies;
  }
  if (tracer_ != nullptr) {
    tracer_->count(std::string("comm.bytes_") + dir_name(dir),
                   wire_bytes * copies);
    tracer_->count(std::string("comm.msgs_") + dir_name(dir), copies);
  }
}

const std::vector<float>& Channel::residual(Direction dir,
                                            std::size_t stream) const {
  static const std::vector<float> kEmpty;
  const auto& map = dir == Direction::kDown ? residual_down_ : residual_up_;
  auto it = map.find(stream);
  return it == map.end() ? kEmpty : it->second;
}

std::size_t Channel::residual_floats(Direction dir) const {
  const auto& map = dir == Direction::kDown ? residual_down_ : residual_up_;
  std::size_t total = 0;
  for (const auto& entry : map) total += entry.second.size();
  return total;
}

std::size_t Channel::encode(Direction dir, const std::vector<float>& x,
                            Rng& rng, std::size_t stream,
                            std::vector<float>* decoded) {
  const Compressor& codec = compressor(dir);
  if (!error_feedback(dir) || codec.lossless()) {
    Encoded e = codec.compress(x, rng);
    *decoded = codec.decompress(e);
    return e.wire_bytes;
  }
  // Error feedback: transmit payload + carried residual, keep the part the
  // codec dropped for this stream's next message.
  auto& r = (dir == Direction::kDown ? residual_down_ : residual_up_)[stream];
  r.resize(x.size(), 0.0f);
  std::vector<float> carried(x.size());
  vec::add(x, r, carried);
  Encoded e = codec.compress(carried, rng);
  *decoded = codec.decompress(e);
  vec::sub(carried, *decoded, r);
  if (tracer_ != nullptr) {
    // Accumulated L2 of the post-transmit residual: how much error the EF
    // loop is still carrying (deterministic — a pure function of the run).
    double sq = 0.0;
    for (float v : r) sq += static_cast<double>(v) * v;
    tracer_->gauge_add(std::string("comm.ef_residual_l2.") + dir_name(dir),
                       std::sqrt(sq));
  }
  return e.wire_bytes;
}

std::size_t Channel::transmit(Direction dir, std::vector<float>& x, Rng& rng,
                              std::size_t copies, std::size_t stream) {
  const Compressor& codec = compressor(dir);
  std::size_t bytes;
  if (lossless(dir)) {
    // Lossless path: accounting only, no encode/decode, no copy.
    bytes = codec.wire_bytes(x.size());
  } else {
    {
      obs::WallSpan span(tracer_, "compress",
                         {{"in_bytes", static_cast<double>(4 * x.size())},
                          {"copies", static_cast<double>(copies)}});
      std::vector<float> decoded;
      bytes = encode(dir, x, rng, stream, &decoded);
      x = std::move(decoded);
    }
    if (tracer_ != nullptr) {
      tracer_->count("comm.compress_in_bytes", 4 * x.size());
      tracer_->count("comm.compress_out_bytes", bytes);
    }
  }
  if (tracer_ != nullptr) {
    tracer_->count(std::string("comm.bytes_") + dir_name(dir) + "." +
                       codec.name(),
                   bytes * copies);
  }
  record(dir, bytes, copies);
  return bytes;
}

}  // namespace fedtrip::comm
