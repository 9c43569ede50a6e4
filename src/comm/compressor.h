// Compressor: lossy/lossless update encodings with exact byte accounting.
//
// Every strategy answers two questions: what floats does the receiver
// decode, and exactly how many bytes crossed the wire. `Encoded::wire_bytes`
// is the exact size the wire layout below occupies; `wire::serialize`
// (src/wire/payload.h) materialises it and is required to produce exactly
// that many bytes, so byte accounting is an enforced invariant rather than
// an estimate. The in-process simulation moves decoded floats; the socket
// transport ships these bytes (net/wirecodec.h).
//
// Wire layout (see docs/WIRE_FORMAT.md). Identity is an unframed raw
// float stream — exactly 4*dim bytes, matching the closed-form CommModel so
// default runs reproduce the seed's MB accounting bit-for-bit. Every other
// codec is framed with an 8-byte header (u32 original dim, u32 codec tag =
// kind | param << 8, little-endian):
//   identity:  4*dim                                        (raw floats)
//   topk:      header + 4 (k) + 4*k (u32 indices) + 4*k (float values)
//   qsgd-b:    header + 8 (float lo, hi) + ceil(dim*b/8)    (packed levels)
//   randmask:  header + 8 (u64 mask seed) + 4 (k) + 4*k     (float values)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/rng.h"

namespace fedtrip::comm {

/// Wire codec kinds — the stable on-the-wire identifiers stored in the
/// framed message header's tag field (docs/WIRE_FORMAT.md). Never renumber.
enum class Codec : std::uint8_t {
  kIdentity = 0,  // unframed raw floats; kind is carried out of band
  kTopK = 1,
  kQsgd = 2,
  kRandMask = 3,
};

/// Human-readable kind name ("identity", "topk", ...).
const char* codec_kind_name(Codec codec);

/// One compressed tensor message plus its exact serialized size.
struct Encoded {
  Codec codec = Codec::kIdentity;      // which wire encoding this is
  std::uint8_t level_bits = 0;         // qsgd quantization bit width (else 0)
  std::size_t dim = 0;                 // original float count
  std::vector<std::uint32_t> indices;  // sparse coordinates (top-k)
  std::vector<float> values;           // dense or sparse float payload
  std::vector<std::uint8_t> packed;    // bit-packed quantization levels
  float lo = 0.0f, hi = 0.0f;          // quantization range
  std::uint64_t mask_seed = 0;         // random-mask stream seed
  std::size_t wire_bytes = 0;          // exact serialized size
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  virtual std::string name() const = 0;

  /// True when decompress(compress(x)) == x bit-for-bit and `rng` is never
  /// consumed. The channel skips the encode/decode round-trip entirely for
  /// lossless codecs (zero-copy transparent path).
  virtual bool lossless() const { return false; }

  /// Encodes `x`. `rng` drives any stochastic choices (quantization
  /// rounding, random masks); implementations must draw from it
  /// deterministically so fixed seeds give bit-identical runs.
  virtual Encoded compress(const std::vector<float>& x, Rng& rng) const = 0;

  /// Decodes to a full-dimension float vector (zeros where nothing was
  /// transmitted). Deterministic function of the encoding.
  virtual std::vector<float> decompress(const Encoded& e) const = 0;

  /// Exact wire bytes a dim-float message occupies under this codec,
  /// without compressing (byte accounting is data-independent for all
  /// built-in codecs).
  virtual std::size_t wire_bytes(std::size_t dim) const = 0;
};

using CompressorPtr = std::unique_ptr<Compressor>;

/// Shared 8-byte message header (u32 dim, u32 codec tag) of the framed
/// codecs. Identity is unframed (see wire layout above).
inline constexpr std::size_t kHeaderBytes = 8;

/// Raw float pass-through: wire = exactly 4*dim, decode is bit-identical.
class IdentityCompressor : public Compressor {
 public:
  std::string name() const override { return "identity"; }
  bool lossless() const override { return true; }
  Encoded compress(const std::vector<float>& x, Rng& rng) const override;
  std::vector<float> decompress(const Encoded& e) const override;
  std::size_t wire_bytes(std::size_t dim) const override;
};

/// Top-k magnitude sparsification, index+value encoding. Retained
/// coordinates are exact; dropped ones decode to zero. Deterministic
/// (ties broken by lower index); `rng` is unused.
class TopKCompressor : public Compressor {
 public:
  explicit TopKCompressor(float fraction);
  std::string name() const override;
  Encoded compress(const std::vector<float>& x, Rng& rng) const override;
  std::vector<float> decompress(const Encoded& e) const override;
  std::size_t wire_bytes(std::size_t dim) const override;

  /// k for a dim-float message: max(1, round(fraction * dim)), capped at dim.
  std::size_t k_for(std::size_t dim) const;
  float fraction() const { return fraction_; }

 private:
  float fraction_;
};

/// QSGD-style stochastic uniform quantization to `bits` levels over the
/// per-message [min, max] range. Stochastic rounding makes the decode
/// unbiased: E[decompress(compress(x))] = x coordinate-wise.
class QsgdCompressor : public Compressor {
 public:
  explicit QsgdCompressor(int bits);
  std::string name() const override;
  Encoded compress(const std::vector<float>& x, Rng& rng) const override;
  std::vector<float> decompress(const Encoded& e) const override;
  std::size_t wire_bytes(std::size_t dim) const override;

  int bits() const { return bits_; }

 private:
  int bits_;
};

/// Random masking: keeps k = max(1, round(keep * dim)) coordinates chosen
/// uniformly from an rng-drawn seed, scales them by dim/k so the decode is
/// unbiased. Only the 8-byte seed and the kept values travel — the receiver
/// regenerates the mask from the seed.
class RandomMaskCompressor : public Compressor {
 public:
  explicit RandomMaskCompressor(float keep);
  std::string name() const override;
  Encoded compress(const std::vector<float>& x, Rng& rng) const override;
  std::vector<float> decompress(const Encoded& e) const override;
  std::size_t wire_bytes(std::size_t dim) const override;

  std::size_t k_for(std::size_t dim) const;
  float keep() const { return keep_; }

 private:
  float keep_;
};

}  // namespace fedtrip::comm
