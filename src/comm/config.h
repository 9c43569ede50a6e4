// Communication subsystem configuration.
//
// CommConfig parameterises the channel the Simulation routes every round's
// broadcast and client updates through: which compressor runs on each
// direction (by registry name, see comm/registry.h) and which simulated
// network converts the resulting bytes into per-round wall-clock time.
// Defaults are fully transparent — identity codecs, no network — so a
// default-configured run is bit-identical to the uncompressed baseline.
#pragma once

#include <cstdint>
#include <string>

namespace fedtrip::comm {

/// Hyperparameters shared by the compressor implementations.
struct CommParams {
  /// Top-k sparsification: fraction of coordinates kept (k = max(1,
  /// round(fraction * dim))). Paper-style deep-gradient-compression setups
  /// use 0.1%–1%.
  float topk_fraction = 0.01f;
  /// QSGD-style stochastic uniform quantization bit width (1..8).
  int qsgd_bits = 8;
  /// Random masking: fraction of coordinates kept (unbiased, scaled by
  /// 1/keep on the wire).
  float mask_keep = 0.1f;
};

/// Simulated network shapes. kNone disables time simulation entirely.
enum class NetProfile {
  kNone,
  /// Every client has the same bandwidth/latency.
  kUniform,
  /// Per-client bandwidth log-uniform in [bw/spread, bw*spread], latency
  /// uniform in [0.5, 1.5] * latency_ms.
  kHeterogeneous,
  /// Uniform, except a fixed fraction of clients slowed by a constant
  /// factor (bandwidth / slowdown, latency * slowdown).
  kStraggler,
};

/// "none" | "uniform" | "heterogeneous" | "straggler".
NetProfile net_profile_from_name(const std::string& name);
const char* net_profile_name(NetProfile profile);

struct NetworkParams {
  NetProfile profile = NetProfile::kNone;
  /// Mean per-client link bandwidth (both directions), megabits per second.
  double bandwidth_mbps = 10.0;
  /// Mean per-client one-way latency, milliseconds.
  double latency_ms = 50.0;
  /// Heterogeneous profile: log-uniform bandwidth spread factor (>= 1).
  double het_spread = 10.0;
  /// Straggler profile: fraction of clients that are slow and their factor.
  double straggler_fraction = 0.1;
  double straggler_slowdown = 10.0;
  /// Shared server-side link serialising all transfers (0 = unconstrained).
  double server_bandwidth_mbps = 0.0;
};

struct CommConfig {
  /// Compressor registry names for each direction (comm/registry.h). An
  /// "ef+" prefix (e.g. "ef+topk") wraps the codec in per-stream error
  /// feedback: the compression residual is accumulated client-side and
  /// added to that stream's next payload.
  std::string uplink = "identity";
  std::string downlink = "identity";
  /// Compress the update delta w_k - w (the standard deep-gradient-
  /// compression setting) instead of the raw parameters on the uplink; the
  /// server adds the broadcast reference back after decoding. Sparsifiers
  /// keep much more signal this way late in training.
  bool delta_uplink = false;
  CommParams params;
  NetworkParams network;
};

}  // namespace fedtrip::comm
