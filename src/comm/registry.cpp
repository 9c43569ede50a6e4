#include "comm/registry.h"

#include <stdexcept>

namespace fedtrip::comm {

CompressorPtr make_compressor(const std::string& name,
                              const CommParams& p) {
  if (name == "identity") return std::make_unique<IdentityCompressor>();
  if (name == "topk") return std::make_unique<TopKCompressor>(p.topk_fraction);
  if (name == "qsgd") return std::make_unique<QsgdCompressor>(p.qsgd_bits);
  if (name == "qsgd8") return std::make_unique<QsgdCompressor>(8);
  if (name == "qsgd4") return std::make_unique<QsgdCompressor>(4);
  if (name == "randmask") {
    return std::make_unique<RandomMaskCompressor>(p.mask_keep);
  }
  throw std::invalid_argument("unknown compressor: " + name);
}

const std::vector<std::string>& all_compressors() {
  static const std::vector<std::string> names = {
      "identity", "topk", "qsgd8", "qsgd4", "randmask"};
  return names;
}

bool strip_ef_prefix(std::string& name) {
  if (name.rfind("ef+", 0) == 0) {
    name = name.substr(3);
    return true;
  }
  return false;
}

ChannelPtr make_channel(const CommConfig& config) {
  std::string down = config.downlink;
  std::string up = config.uplink;
  const bool ef_down = strip_ef_prefix(down);
  const bool ef_up = strip_ef_prefix(up);
  return std::make_unique<Channel>(make_compressor(down, config.params),
                                   make_compressor(up, config.params),
                                   ef_down, ef_up);
}

}  // namespace fedtrip::comm
