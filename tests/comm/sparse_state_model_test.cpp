// Model-based randomized test of the channel's sparse per-stream state:
// the Channel keeps EF residuals in a map keyed by sender stream
// (materialized on first lossy transmit — the O(active) memory contract),
// and this suite drives it in lockstep against a dense reference
// implementation that allocates every stream's residual up
// front — the textbook EF-SGD formulation. After EVERY op the decoded
// values, the wire bytes and the full residual state must match exactly,
// with and without delta framing, across random op interleavings over
// random stream subsets.
//
// Each scenario is seeded; on failure the harness first shrinks the op
// log by greedy removal-replay (drop an op, rerun the whole log from
// scratch, keep the drop if the failure survives) and then prints the
// minimal failing sequence plus the scenario seed, so a red run is
// reproducible and small.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/channel.h"
#include "comm/registry.h"
#include "tensor/rng.h"
#include "tensor/vec_math.h"

namespace fedtrip {
namespace {

struct Op {
  std::size_t stream = 0;
  std::uint64_t rng_key = 0;  // per-op compressor randomness
  std::vector<float> x;       // payload before delta framing
};

struct Scenario {
  std::uint64_t seed = 0;
  comm::CommParams params;
  std::string codec = "topk";
  bool delta = false;
  std::size_t dim = 0;
  std::size_t num_streams = 0;
  std::vector<float> baseline;  // shared delta reference (the broadcast)
  std::vector<Op> ops;
};

/// The dense reference: one eagerly allocated residual per stream, the
/// EF update written out longhand against its own codec instance.
class DenseEfModel {
 public:
  DenseEfModel(const Scenario& s)
      : codec_(comm::make_compressor(s.codec, s.params)),
        residuals_(s.num_streams, std::vector<float>(s.dim, 0.0f)) {}

  /// Returns the decoded payload; *bytes gets the wire size.
  std::vector<float> transmit(const Op& op, Rng rng, std::size_t* bytes) {
    auto& r = residuals_[op.stream];
    std::vector<float> carried(op.x.size());
    vec::add(op.x, r, carried);
    const comm::Encoded e = codec_->compress(carried, rng);
    std::vector<float> decoded = codec_->decompress(e);
    vec::sub(carried, decoded, r);
    *bytes = e.wire_bytes;
    return decoded;
  }

  const std::vector<float>& residual(std::size_t stream) const {
    return residuals_[stream];
  }

 private:
  comm::CompressorPtr codec_;
  std::vector<std::vector<float>> residuals_;
};

Scenario random_scenario(Rng& meta) {
  Scenario s;
  s.seed = meta.uniform_int(1u << 30);
  s.codec = meta.uniform() < 0.5 ? "topk" : "qsgd4";
  s.params.topk_fraction = 0.25f;
  s.params.qsgd_bits = 4;
  s.delta = meta.uniform() < 0.5;
  s.dim = 8 + meta.uniform_int(25);
  s.num_streams = 3 + meta.uniform_int(40);
  Rng value_rng(s.seed);
  s.baseline.resize(s.dim);
  for (auto& v : s.baseline) v = value_rng.normal(0.0f, 1.0f);
  const std::size_t n_ops = 10 + value_rng.uniform_int(30);
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    op.stream = value_rng.uniform_int(s.num_streams);
    op.rng_key = value_rng.uniform_int(1u << 20);
    op.x.resize(s.dim);
    for (auto& v : op.x) v = value_rng.normal(0.0f, 2.0f);
    s.ops.push_back(std::move(op));
  }
  return s;
}

/// Replays `ops` against a fresh channel + fresh dense model. Returns
/// nullopt on success, or a description of the first divergence.
std::optional<std::string> replay(const Scenario& s,
                                  const std::vector<Op>& ops) {
  comm::Channel channel(
      comm::make_compressor("identity", s.params),
      comm::make_compressor(s.codec, s.params),
      /*ef_down=*/false, /*ef_up=*/true);
  DenseEfModel model(s);
  Rng op_rng_root(s.seed ^ 0x5EEDBEEF);
  std::vector<std::size_t> touched;  // distinct streams, for sparsity check
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    // Delta framing like the round host: subtract the shared baseline,
    // transmit, add back — both sides identically.
    std::vector<float> x = op.x;
    if (s.delta) vec::sub(x, s.baseline, x);

    const Rng op_rng = op_rng_root.split(op.rng_key);
    std::size_t model_bytes = 0;
    const std::vector<float> want = model.transmit(
        s.delta ? Op{op.stream, op.rng_key, x} : op, op_rng, &model_bytes);

    std::vector<float> got = s.delta ? x : op.x;
    Rng channel_rng = op_rng;
    const std::size_t got_bytes = channel.transmit(
        comm::Direction::kUp, got, channel_rng, 1, op.stream);

    if (got_bytes != model_bytes) {
      return "op " + std::to_string(i) + ": wire bytes diverged (channel " +
             std::to_string(got_bytes) + ", dense model " +
             std::to_string(model_bytes) + ")";
    }
    if (got != want) {
      return "op " + std::to_string(i) + ": decoded values diverged";
    }
    if (channel.residual(comm::Direction::kUp, op.stream) !=
        model.residual(op.stream)) {
      return "op " + std::to_string(i) + ": residual of stream " +
             std::to_string(op.stream) + " diverged";
    }
    bool seen = false;
    for (std::size_t t : touched) seen |= (t == op.stream);
    if (!seen) touched.push_back(op.stream);
    // The sparsity contract: exactly the touched streams are material-
    // ized, and untouched residuals read back empty.
    if (channel.residual_streams(comm::Direction::kUp) != touched.size()) {
      return "op " + std::to_string(i) + ": expected " +
             std::to_string(touched.size()) + " materialized streams, got " +
             std::to_string(channel.residual_streams(comm::Direction::kUp));
    }
  }
  for (std::size_t k = 0; k < s.num_streams; ++k) {
    bool seen = false;
    for (std::size_t t : touched) seen |= (t == k);
    if (!seen &&
        !channel.residual(comm::Direction::kUp, k).empty()) {
      return "untouched stream " + std::to_string(k) + " has a residual";
    }
  }
  return std::nullopt;
}

/// Greedy shrink: repeatedly drop ops whose removal keeps the replay
/// failing; the survivor is a (locally) minimal failing op log.
std::vector<Op> shrink(const Scenario& s, std::vector<Op> ops) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (replay(s, candidate).has_value()) {
        ops = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return ops;
}

std::string describe(const Scenario& s, const std::vector<Op>& ops) {
  std::ostringstream out;
  out << "scenario seed=" << s.seed << " codec=" << s.codec
      << " delta=" << s.delta << " dim=" << s.dim
      << "; minimal failing op log (" << ops.size() << " ops):";
  for (const Op& op : ops) {
    out << " (stream=" << op.stream << ", key=" << op.rng_key << ")";
  }
  return out.str();
}

TEST(SparseStateModelTest, ChannelMatchesDenseReferenceEveryStep) {
  Rng meta(0x3FA253);
  for (int trial = 0; trial < 40; ++trial) {
    const Scenario s = random_scenario(meta);
    const auto failure = replay(s, s.ops);
    if (failure.has_value()) {
      const auto minimal = shrink(s, s.ops);
      FAIL() << *replay(s, minimal) << "\n" << describe(s, minimal);
    }
  }
}

TEST(SparseStateModelTest, LosslessCodecNeverMaterializesResiduals) {
  // EF wraps lossless codecs as a no-op; the sparse map must stay empty
  // no matter how many streams transmit.
  comm::CommParams params;
  comm::Channel channel(comm::make_compressor("identity", params),
                        comm::make_compressor("identity", params),
                        /*ef_down=*/true, /*ef_up=*/true);
  Rng rng(7);
  for (std::size_t stream = 0; stream < 64; ++stream) {
    std::vector<float> x(16, 1.0f);
    channel.transmit(comm::Direction::kUp, x, rng, 1, stream);
    channel.transmit(comm::Direction::kDown, x, rng, 1, stream);
  }
  EXPECT_EQ(channel.residual_streams(comm::Direction::kUp), 0u);
  EXPECT_EQ(channel.residual_streams(comm::Direction::kDown), 0u);
  EXPECT_EQ(channel.residual_floats(comm::Direction::kUp), 0u);
}

TEST(SparseStateModelTest, ResidualFootprintTracksParticipantsOnly) {
  // The gauge behind the memory-ceiling claim: K participants out of a
  // huge id space cost exactly K * dim floats, regardless of how large
  // the ids are.
  comm::CommParams params;
  params.topk_fraction = 0.25f;
  comm::Channel channel(comm::make_compressor("identity", params),
                        comm::make_compressor("topk", params),
                        /*ef_down=*/false, /*ef_up=*/true);
  Rng rng(11);
  constexpr std::size_t kDim = 32;
  const std::size_t ids[] = {3, 999999, 123456789, 1000000000};
  for (std::size_t id : ids) {
    std::vector<float> x(kDim, 0.5f);
    channel.transmit(comm::Direction::kUp, x, rng, 1, id);
  }
  EXPECT_EQ(channel.residual_streams(comm::Direction::kUp), 4u);
  EXPECT_EQ(channel.residual_floats(comm::Direction::kUp), 4 * kDim);
}

}  // namespace
}  // namespace fedtrip
