// Channel per-direction byte accounting: exact to the byte, broadcast
// fan-out, raw side-channel extras, lossless no-op paths.
#include "comm/channel.h"

#include <gtest/gtest.h>

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

ChannelPtr identity_channel() {
  return make_channel(CommConfig{});
}

TEST(ChannelTest, IdentityIsLosslessAndBitExact) {
  auto ch = identity_channel();
  Rng rng(1);
  auto x = random_vector(100, 3);
  const auto original = x;
  ch->transmit(Direction::kDown, x, rng);
  ch->transmit(Direction::kUp, x, rng);
  EXPECT_EQ(x, original);
  EXPECT_TRUE(ch->lossless(Direction::kDown));
  EXPECT_TRUE(ch->lossless(Direction::kUp));
}

TEST(ChannelTest, PerDirectionAccountingExact) {
  auto ch = identity_channel();
  Rng rng(1);
  auto x = random_vector(250, 5);
  ch->transmit(Direction::kDown, x, rng);
  EXPECT_EQ(ch->stats().bytes_down, 1000u);
  EXPECT_EQ(ch->stats().bytes_up, 0u);
  EXPECT_EQ(ch->stats().messages_down, 1u);
  ch->transmit(Direction::kUp, x, rng);
  EXPECT_EQ(ch->stats().bytes_up, 1000u);
  EXPECT_EQ(ch->stats().messages_up, 1u);
  EXPECT_DOUBLE_EQ(ch->stats().total_mb(), 0.002);
}

TEST(ChannelTest, BroadcastCopiesMultiplyBytes) {
  auto ch = identity_channel();
  Rng rng(1);
  auto x = random_vector(100, 7);
  const std::size_t per_copy = ch->transmit(Direction::kDown, x, rng, 4);
  EXPECT_EQ(per_copy, 400u);
  EXPECT_EQ(ch->stats().bytes_down, 1600u);  // one encode, four deliveries
  EXPECT_EQ(ch->stats().messages_down, 4u);
}

TEST(ChannelTest, RawExtrasAccountedInDirection) {
  auto ch = identity_channel();
  ch->account_raw(Direction::kDown, 100);
  ch->account_raw(Direction::kUp, 50);
  EXPECT_EQ(ch->stats().bytes_down, 400u);
  EXPECT_EQ(ch->stats().bytes_up, 200u);
  EXPECT_EQ(ch->stats().raw_floats_down, 100u);
  EXPECT_EQ(ch->stats().raw_floats_up, 50u);
  // Zero floats is a no-op, not a message.
  ch->account_raw(Direction::kUp, 0);
  EXPECT_EQ(ch->stats().bytes_up, 200u);
}

TEST(ChannelTest, LossyUplinkTransformsInPlace) {
  CommConfig cfg;
  cfg.uplink = "topk";
  cfg.params.topk_fraction = 0.1f;
  auto ch = make_channel(cfg);
  Rng rng(11);
  auto x = random_vector(200, 13);
  const auto original = x;
  const std::size_t bytes = ch->transmit(Direction::kUp, x, rng);
  EXPECT_NE(x, original);  // sparsified
  std::size_t nonzero = 0;
  for (float v : x) nonzero += v != 0.0f;
  EXPECT_EQ(nonzero, 20u);
  EXPECT_EQ(bytes, 8u + 4u + 20u * 8u);
  EXPECT_EQ(ch->stats().bytes_up, bytes);
  // Downlink stays lossless and uncounted so far.
  EXPECT_TRUE(ch->lossless(Direction::kDown));
  EXPECT_EQ(ch->stats().bytes_down, 0u);
}

}  // namespace
}  // namespace fedtrip::comm
