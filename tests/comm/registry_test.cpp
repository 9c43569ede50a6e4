// Compressor/channel registry lookups, mirroring
// tests/algorithms/registry_test.cpp.
#include "comm/registry.h"

#include <gtest/gtest.h>

namespace fedtrip::comm {
namespace {

TEST(CommRegistryTest, AllNamesInstantiate) {
  CommParams p;
  for (const auto& name : all_compressors()) {
    auto c = make_compressor(name, p);
    ASSERT_NE(c, nullptr) << name;
  }
}

TEST(CommRegistryTest, IdentityIsFirstAndLossless) {
  ASSERT_FALSE(all_compressors().empty());
  EXPECT_EQ(all_compressors().front(), "identity");
  CommParams p;
  EXPECT_TRUE(make_compressor("identity", p)->lossless());
}

TEST(CommRegistryTest, UnknownNameThrows) {
  CommParams p;
  EXPECT_THROW(make_compressor("gzip", p), std::invalid_argument);
  EXPECT_THROW(make_compressor("", p), std::invalid_argument);
}

TEST(CommRegistryTest, ParamsAreRespected) {
  CommParams p;
  p.topk_fraction = 0.25f;
  p.qsgd_bits = 2;
  p.mask_keep = 0.5f;
  auto topk = make_compressor("topk", p);
  EXPECT_EQ(static_cast<TopKCompressor&>(*topk).fraction(), 0.25f);
  auto qsgd = make_compressor("qsgd", p);
  EXPECT_EQ(static_cast<QsgdCompressor&>(*qsgd).bits(), 2);
  auto mask = make_compressor("randmask", p);
  EXPECT_EQ(static_cast<RandomMaskCompressor&>(*mask).keep(), 0.5f);
  // Fixed-width aliases ignore qsgd_bits.
  EXPECT_EQ(static_cast<QsgdCompressor&>(*make_compressor("qsgd8", p)).bits(),
            8);
  EXPECT_EQ(static_cast<QsgdCompressor&>(*make_compressor("qsgd4", p)).bits(),
            4);
}

TEST(CommRegistryTest, MakeChannelUsesPerDirectionNames) {
  CommConfig cfg;
  cfg.downlink = "identity";
  cfg.uplink = "qsgd8";
  auto ch = make_channel(cfg);
  EXPECT_TRUE(ch->lossless(Direction::kDown));
  EXPECT_FALSE(ch->lossless(Direction::kUp));
  EXPECT_EQ(ch->name(), "down:identity/up:qsgd8");
}

}  // namespace
}  // namespace fedtrip::comm
