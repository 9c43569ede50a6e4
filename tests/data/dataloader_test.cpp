#include "data/dataloader.h"

#include <gtest/gtest.h>

#include <set>

namespace fedtrip::data {
namespace {

Dataset tiny(std::size_t n) {
  Dataset ds("tiny", 2, 1, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    ds.add_sample({static_cast<float>(i)}, static_cast<std::int64_t>(i % 2));
  }
  return ds;
}

TEST(DataLoaderTest, BatchesPerEpoch) {
  Dataset ds = tiny(10);
  DataLoader exact(ds, {0, 1, 2, 3}, 2);
  EXPECT_EQ(exact.batches_per_epoch(), 2u);
  DataLoader ragged(ds, {0, 1, 2, 3, 4}, 2);
  EXPECT_EQ(ragged.batches_per_epoch(), 3u);
  DataLoader empty(ds, {}, 2);
  EXPECT_EQ(empty.batches_per_epoch(), 0u);
}

TEST(DataLoaderTest, EpochCoversAllSamplesOnce) {
  Dataset ds = tiny(10);
  DataLoader loader(ds, {0, 2, 4, 6, 8}, 2);
  Rng rng(1);
  auto batches = loader.epoch(rng);
  std::multiset<float> seen;
  for (const auto& b : batches) {
    for (std::int64_t i = 0; i < b.inputs.numel(); ++i) {
      seen.insert(b.inputs[static_cast<std::size_t>(i)]);
    }
  }
  EXPECT_EQ(seen.size(), 5u);
  for (float v : {0.0f, 2.0f, 4.0f, 6.0f, 8.0f}) {
    EXPECT_EQ(seen.count(v), 1u);
  }
}

TEST(DataLoaderTest, LastBatchIsPartial) {
  Dataset ds = tiny(10);
  DataLoader loader(ds, {0, 1, 2, 3, 4}, 2);
  Rng rng(2);
  auto batches = loader.epoch(rng);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].labels.size(), 2u);
  EXPECT_EQ(batches[2].labels.size(), 1u);
}

TEST(DataLoaderTest, LabelsAlignWithInputs) {
  Dataset ds = tiny(10);
  DataLoader loader(ds, {1, 2, 3, 4}, 2);
  Rng rng(3);
  for (const auto& b : loader.epoch(rng)) {
    for (std::size_t i = 0; i < b.labels.size(); ++i) {
      const float pixel = b.inputs[i];  // pixel value == sample index
      EXPECT_EQ(b.labels[i], static_cast<std::int64_t>(pixel) % 2);
    }
  }
}

TEST(DataLoaderTest, ShuffleDiffersAcrossEpochs) {
  Dataset ds = tiny(64);
  std::vector<std::size_t> idx(64);
  for (std::size_t i = 0; i < 64; ++i) idx[i] = i;
  DataLoader loader(ds, idx, 64);
  Rng rng(4);
  auto e1 = loader.epoch(rng);
  auto e2 = loader.epoch(rng);
  bool any_diff = false;
  for (std::int64_t i = 0; i < e1[0].inputs.numel(); ++i) {
    const auto j = static_cast<std::size_t>(i);
    if (e1[0].inputs[j] != e2[0].inputs[j]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(DataLoaderTest, SameRngSameOrder) {
  Dataset ds = tiny(16);
  std::vector<std::size_t> idx(16);
  for (std::size_t i = 0; i < 16; ++i) idx[i] = i;
  DataLoader loader(ds, idx, 4);
  Rng r1(5), r2(5);
  auto e1 = loader.epoch(r1);
  auto e2 = loader.epoch(r2);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t b = 0; b < e1.size(); ++b) {
    EXPECT_EQ(e1[b].labels, e2[b].labels);
  }
}

TEST(DataLoaderTest, SliceReturnsTheRangeInIndexOrder) {
  Dataset ds = tiny(10);
  DataLoader loader(ds, {7, 8, 9}, 2);
  auto batch = loader.slice(0, loader.size());
  EXPECT_EQ(batch.labels.size(), 3u);
  EXPECT_FLOAT_EQ(batch.inputs[0], 7.0f);
  EXPECT_FLOAT_EQ(batch.inputs[2], 9.0f);
  auto tail = loader.slice(1, 3);
  EXPECT_EQ(tail.labels.size(), 2u);
  EXPECT_FLOAT_EQ(tail.inputs[0], 8.0f);
  EXPECT_FLOAT_EQ(tail.inputs[1], 9.0f);
  EXPECT_TRUE(loader.slice(2, 2).labels.empty());
}

TEST(DataLoaderTest, SizeAccessors) {
  Dataset ds = tiny(10);
  DataLoader loader(ds, {0, 1, 2}, 50);
  EXPECT_EQ(loader.size(), 3u);
  EXPECT_EQ(loader.batch_size(), 50u);
}

}  // namespace
}  // namespace fedtrip::data
