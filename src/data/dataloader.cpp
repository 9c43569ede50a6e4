#include "data/dataloader.h"

#include <algorithm>
#include <numeric>

namespace fedtrip::data {

DataLoader::DataLoader(const Dataset& dataset, std::size_t batch_size)
    : DataLoader(dataset, std::vector<std::size_t>(dataset.size()),
                 batch_size) {
  std::iota(indices_.begin(), indices_.end(), std::size_t{0});
}

std::vector<Batch> DataLoader::epoch(Rng& rng) const {
  std::vector<std::size_t> order = indices_;
  rng.shuffle(order);

  std::vector<Batch> batches;
  batches.reserve(batches_per_epoch());
  for (std::size_t start = 0; start < order.size(); start += batch_size_) {
    const std::size_t end = std::min(order.size(), start + batch_size_);
    std::vector<std::size_t> chunk(order.begin() +
                                       static_cast<std::ptrdiff_t>(start),
                                   order.begin() +
                                       static_cast<std::ptrdiff_t>(end));
    batches.push_back(Batch{dataset_->make_batch(chunk),
                            dataset_->make_batch_labels(chunk)});
  }
  return batches;
}

Batch DataLoader::slice(std::size_t begin, std::size_t end) const {
  const std::vector<std::size_t> chunk(
      indices_.begin() + static_cast<std::ptrdiff_t>(begin),
      indices_.begin() + static_cast<std::ptrdiff_t>(end));
  return Batch{dataset_->make_batch(chunk), dataset_->make_batch_labels(chunk)};
}

}  // namespace fedtrip::data
