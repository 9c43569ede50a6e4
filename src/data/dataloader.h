// DataLoader: shuffled mini-batches over a client's partition indices.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "tensor/rng.h"

namespace fedtrip::data {

struct Batch {
  Tensor inputs;                     // [B, C, H, W]
  std::vector<std::int64_t> labels;  // B
};

class DataLoader {
 public:
  /// `indices` selects the client's samples within `dataset`. The loader
  /// does NOT own the dataset; it must outlive the loader.
  DataLoader(const Dataset& dataset, std::vector<std::size_t> indices,
             std::size_t batch_size)
      : dataset_(&dataset),
        indices_(std::move(indices)),
        batch_size_(batch_size) {}
  /// Every sample of `dataset`, in order (a client's own shard).
  DataLoader(const Dataset& dataset, std::size_t batch_size);

  std::size_t size() const { return indices_.size(); }
  std::size_t batch_size() const { return batch_size_; }

  /// Number of batches per epoch (last partial batch included).
  std::size_t batches_per_epoch() const {
    return indices_.empty() ? 0
                            : (indices_.size() + batch_size_ - 1) / batch_size_;
  }

  /// Produces one epoch of shuffled batches using `rng` for the permutation.
  std::vector<Batch> epoch(Rng& rng) const;

  /// Samples [begin, end) of the subset, in index order, as one batch.
  Batch slice(std::size_t begin, std::size_t end) const;

 private:
  const Dataset* dataset_;
  std::vector<std::size_t> indices_;
  std::size_t batch_size_;
};

}  // namespace fedtrip::data
