// Error feedback: the channel accumulates each codec's residual per sender
// stream and adds it to that stream's next payload, so dropped coordinates
// are eventually transmitted (EF-SGD's compensation property).
#include <gtest/gtest.h>

#include <cmath>

#include "comm/channel.h"
#include "comm/registry.h"
#include "tensor/rng.h"

namespace fedtrip::comm {
namespace {

std::vector<float> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = rng.normal();
  return x;
}

ChannelPtr ef_topk_channel(float fraction = 0.1f) {
  CommConfig cfg;
  cfg.uplink = "ef+topk";
  cfg.params.topk_fraction = fraction;
  return make_channel(cfg);
}

TEST(EfRegistryTest, StripsPrefix) {
  std::string name = "ef+topk";
  EXPECT_TRUE(strip_ef_prefix(name));
  EXPECT_EQ(name, "topk");
  name = "qsgd8";
  EXPECT_FALSE(strip_ef_prefix(name));
  EXPECT_EQ(name, "qsgd8");
}

TEST(EfRegistryTest, ChannelNameCarriesPrefix) {
  auto ch = ef_topk_channel();
  EXPECT_EQ(ch->name(), "down:identity/up:ef+topk-0.1");
  EXPECT_TRUE(ch->error_feedback(Direction::kUp));
  EXPECT_FALSE(ch->error_feedback(Direction::kDown));
}

TEST(EfChannelTest, ResidualIsWhatTheCodecDropped) {
  auto ch = ef_topk_channel();
  Rng rng(3);
  auto x = random_vector(100, 5);
  const auto sent = x;
  ch->transmit(Direction::kUp, x, rng, 1, /*stream=*/7);
  const auto& r = ch->residual(Direction::kUp, 7);
  ASSERT_EQ(r.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_FLOAT_EQ(r[i] + x[i], sent[i]);  // decoded + residual = input
  }
}

TEST(EfChannelTest, ResidualCarriesIntoNextMessage) {
  // Send the same vector twice: coordinates top-k dropped in message one
  // ride in message two's payload, so the decoded sum approaches 2x the
  // input (sum of decodes + final residual == sum of inputs, exactly, by
  // induction on the carried value).
  auto ch = ef_topk_channel(0.5f);
  Rng rng(11);
  const auto input = random_vector(40, 13);
  std::vector<float> decoded_sum(input.size(), 0.0f);
  for (int round = 0; round < 2; ++round) {
    auto x = input;
    ch->transmit(Direction::kUp, x, rng, 1, /*stream=*/0);
    for (std::size_t i = 0; i < x.size(); ++i) decoded_sum[i] += x[i];
  }
  const auto& r = ch->residual(Direction::kUp, 0);
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_NEAR(decoded_sum[i] + r[i], 2.0f * input[i], 1e-5f);
  }
}

TEST(EfChannelTest, StreamsKeepIndependentResiduals) {
  auto ch = ef_topk_channel();
  Rng rng(17);
  auto a = random_vector(60, 19);
  auto b = random_vector(60, 23);
  ch->transmit(Direction::kUp, a, rng, 1, /*stream=*/1);
  const auto r1_snapshot = ch->residual(Direction::kUp, 1);
  ch->transmit(Direction::kUp, b, rng, 1, /*stream=*/2);
  // Stream 2's transmit must not disturb stream 1's residual.
  EXPECT_EQ(ch->residual(Direction::kUp, 1), r1_snapshot);
  EXPECT_FALSE(ch->residual(Direction::kUp, 2).empty());
  // An untouched stream has no state.
  EXPECT_TRUE(ch->residual(Direction::kUp, 3).empty());
}

TEST(EfChannelTest, NoOpAroundLosslessCodec) {
  CommConfig cfg;
  cfg.uplink = "ef+identity";
  auto ch = make_channel(cfg);
  Rng rng(29);
  auto x = random_vector(50, 31);
  const auto original = x;
  ch->transmit(Direction::kUp, x, rng, 1, /*stream=*/4);
  EXPECT_EQ(x, original);  // still lossless
  EXPECT_TRUE(ch->lossless(Direction::kUp));
  EXPECT_TRUE(ch->residual(Direction::kUp, 4).empty());
}

TEST(EfChannelTest, WireBytesUnchangedByEf) {
  CommConfig cfg;
  cfg.uplink = "topk";
  auto plain = make_channel(cfg);
  cfg.uplink = "ef+topk";
  auto ef = make_channel(cfg);
  Rng r1(37), r2(37);
  auto x1 = random_vector(200, 41);
  auto x2 = x1;
  const auto b1 = plain->transmit(Direction::kUp, x1, r1, 1, 0);
  const auto b2 = ef->transmit(Direction::kUp, x2, r2, 1, 0);
  EXPECT_EQ(b1, b2);  // EF changes values, never bytes
  EXPECT_EQ(ef->message_bytes(Direction::kUp, 200),
            plain->message_bytes(Direction::kUp, 200));
}

}  // namespace
}  // namespace fedtrip::comm
