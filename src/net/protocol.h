// The distributed-runner message set: the byte layout of every record the
// coordinator and a worker exchange (frame types in wire/container.h,
// framing in net/frame.h, lifecycle in docs/TRANSPORT.md).
//
// Session shape:
//
//   coordinator -> worker   kNetHello     (supported version range)
//   worker -> coordinator   kNetHello     (chosen version, echoed twice)
//   coordinator -> worker   kNetSetup     (method + config + shard coords)
//   worker -> coordinator   kNetSetupAck  (param_dim cross-check)
//   repeat:
//     coordinator -> worker kNetDispatch  (snapshots + dispatches)
//     worker -> coordinator kNetResult    (trained updates, in order)
//   optional, before shutdown:
//     coordinator -> worker kNetStatsReq  (empty: "ship your stats")
//     worker -> coordinator kNetStats     (StatsReport — obs/stats.h)
//   coordinator -> worker   kNetShutdown
//   either direction        kNetError     (fatal diagnostic, any time)
//
// Serializers build on wire::WireWriter; parsers validate everything —
// counts bounds-checked against the remaining buffer BEFORE allocation,
// bools restricted to 0/1, enums range-checked, exact-consumption
// enforced — and throw wire::WireError on malformed payloads, mirroring
// the tests/wire/ hostile-input discipline. Version-negotiation failures
// throw net::NetError. A layout change to any message bumps
// kProtocolVersion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/params.h"
#include "fl/config.h"
#include "fl/types.h"
#include "net/error.h"
#include "net/segments.h"
#include "net/wirecodec.h"
#include "wire/wire.h"

namespace fedtrip::net {

/// Protocol versions this build can speak (negotiation picks the highest
/// version inside both peers' ranges). v2 added the observability fields
/// to the Setup config block and the kNetStatsReq/kNetStats record pair;
/// v3 added the elastic-coordinator block to Setup (elastic flag,
/// heartbeat interval, rejoin port) and the kNetHeartbeat/kNetDispatchAck
/// records; v4 added the client-data block to the Setup config (client_data
/// mode, shard_samples, the virtual-mode chunk size, track_participation,
/// partition_stats) so a worker rebuilds shard/virtual simulations
/// identically; v5 added the socket-transport block to the Setup config
/// (NetConfig::wire_codec) and, when that codec is non-identity, the
/// per-vector compression envelope inside DispatchBatch/TrainResult
/// payloads (see the envelope note below); v6 added the histogram section
/// to the kNetStats StatsReport payload (obs/stats.h) so worker latency
/// distributions ride the existing stats machinery, mid-run and at
/// shutdown; v7 dropped the chunk size from the Setup client-data block;
/// v8 dropped the comm block's byte-exact flag and the sched block's
/// deadline doomed-skip flag from Setup; coordinator and workers deploy in
/// lockstep (one binary, one repo), so the minimum moves with the maximum
/// rather than carrying older shims.
inline constexpr std::uint16_t kProtocolVersionMin = 8;
inline constexpr std::uint16_t kProtocolVersion = 8;

// ------------------------------------------------------------- handshake

struct HelloMsg {
  std::uint16_t version_min = kProtocolVersionMin;
  std::uint16_t version_max = kProtocolVersion;
};

std::vector<std::uint8_t> serialize_hello(const HelloMsg& m);
HelloMsg parse_hello(const std::uint8_t* data, std::size_t size);

/// The version both sides will speak, or throws NetError when the ranges
/// do not overlap ("bad protocol version" with both ranges spelled out).
std::uint16_t negotiate_version(const HelloMsg& ours, const HelloMsg& theirs);

/// Everything a worker needs to rebuild the coordinator's deterministic
/// world: the algorithm (by registry name + hyperparameters), the full
/// ExperimentConfig (same seed -> same data, partition, models, RNG
/// streams), and which shard of the client space this worker owns
/// (clients with id % num_workers == worker_index).
struct SetupMsg {
  std::string method;
  algorithms::AlgoParams algo;
  fl::ExperimentConfig config;
  std::uint32_t worker_index = 0;
  std::uint32_t num_workers = 1;
  /// Real-data directory (run_experiment --idx-dir); empty = synthetic.
  /// Must resolve on the worker's filesystem.
  std::string idx_dir;
  // ---- elastic-coordinator block (protocol v3; docs/TRANSPORT.md) ----
  /// True when the coordinator runs the elastic lifecycle: the worker then
  /// sends heartbeats and dispatch acks, and accepts dispatches for *any*
  /// client (ownership is a scheduling choice, not a correctness one —
  /// replay and stealing move dispatches between workers freely).
  bool elastic = false;
  /// Wall seconds between worker heartbeats (elastic sessions only).
  double heartbeat_interval_s = 1.0;
  /// Port of the coordinator's accept loop a dropped worker may redial to
  /// rejoin the run (on the host the worker already knows the coordinator
  /// by). 0 = rejoin not offered.
  std::uint16_t rejoin_port = 0;
};

std::vector<std::uint8_t> serialize_setup(const SetupMsg& m);
SetupMsg parse_setup(const std::uint8_t* data, std::size_t size);

struct SetupAckMsg {
  std::uint64_t param_dim = 0;
};

std::vector<std::uint8_t> serialize_setup_ack(const SetupAckMsg& m);
SetupAckMsg parse_setup_ack(const std::uint8_t* data, std::size_t size);

// -------------------------------------------------------------- training

/// One training dispatch inside a batch. The broadcast snapshot is shared
/// by index into DispatchBatchMsg::param_sets (sync/fastk batches share
/// one snapshot across the cohort; async/deadline unicast per dispatch),
/// and the client's history entry — the coordinator's store is the source
/// of truth — rides along so the worker stays stateless across batches.
struct WireDispatch {
  std::uint64_t seq = 0;
  std::uint64_t client_id = 0;
  std::uint64_t round = 0;
  std::uint64_t train_key = 0;
  std::uint32_t param_set = 0;
  bool has_history = false;
  std::uint64_t history_round = 0;
  std::vector<float> history_params;
};

struct DispatchBatchMsg {
  /// Coordinator-side batch counter; the worker echoes it in the result
  /// so a desynchronised pairing fails loudly.
  std::uint64_t batch_seq = 0;
  std::vector<std::vector<float>> param_sets;
  std::vector<WireDispatch> dispatches;
};

// Wire-codec envelope (protocol v5). When the Setup-negotiated wire codec
// is active (non-identity), every float vector inside DispatchBatch and
// TrainResult payloads is written as:
//   u8 mode 0 (raw):     u64 count + count f32s   (the legacy layout)
//   u8 mode 1 (encoded): u32 byte_len + byte_len bytes of
//                        wire::serialize(comm::Encoded)
// The sender picks per vector with verify-and-fallback (net/wirecodec.h),
// so the receiver always reconstructs the exact floats. With the codec
// inactive (or `wc == nullptr`) the envelope vanishes and the byte layout
// is the pre-v5 one bit for bit. `stats` (optional) accumulates raw-vs-
// wire byte accounting for the net.wire.* counters.

std::vector<std::uint8_t> serialize_dispatch_batch(
    const DispatchBatchMsg& m, const WireCodec* wc = nullptr,
    WireStats* stats = nullptr);
DispatchBatchMsg parse_dispatch_batch(const std::uint8_t* data,
                                      std::size_t size,
                                      const WireCodec* wc = nullptr,
                                      WireStats* stats = nullptr);

/// Scatter-gather emission of a dispatch batch: appends segments to `out`
/// whose concatenation is byte-identical to serialize_dispatch_batch with
/// the same arguments (tests/net/segments_test.cpp pins it). Borrowed
/// segments alias `m`'s float storage — `m` must outlive the send.
void dispatch_batch_segments(const DispatchBatchMsg& m, const WireCodec* wc,
                             WireStats* stats, SegmentWriter& out);

/// The trained updates of one batch, aligned with the dispatch order the
/// batch arrived in (which is the coordinator's batch order — the
/// deterministic, seq-ordered reassembly contract).
struct WireUpdate {
  std::uint64_t client_id = 0;
  std::uint64_t num_samples = 0;
  double train_loss = 0.0;
  double flops = 0.0;
  std::uint64_t extra_upload_floats = 0;
  std::vector<float> params;
  std::vector<float> aux;
};

struct TrainResultMsg {
  std::uint64_t batch_seq = 0;
  double pre_round_flops = 0.0;
  std::vector<WireUpdate> updates;
};

std::vector<std::uint8_t> serialize_train_result(
    const TrainResultMsg& m, const WireCodec* wc = nullptr,
    WireStats* stats = nullptr);
TrainResultMsg parse_train_result(const std::uint8_t* data, std::size_t size,
                                  const WireCodec* wc = nullptr,
                                  WireStats* stats = nullptr);

/// Scatter-gather emission of a train result; same contract as
/// dispatch_batch_segments.
void train_result_segments(const TrainResultMsg& m, const WireCodec* wc,
                           WireStats* stats, SegmentWriter& out);

// ---------------------------------------------------- elastic lifecycle

/// Periodic worker -> coordinator liveness beacon (protocol v3, elastic
/// sessions only; sent from a dedicated worker thread so a long local
/// training step does not read as death).
struct HeartbeatMsg {
  /// Dispatches executed so far this session — the coordinator's lag
  /// signal for work-stealing diagnostics.
  std::uint64_t dispatches_done = 0;
  /// Sub-batch currently executing (0 = idle between batches).
  std::uint64_t batch_seq = 0;
};

std::vector<std::uint8_t> serialize_heartbeat(const HeartbeatMsg& m);
HeartbeatMsg parse_heartbeat(const std::uint8_t* data, std::size_t size);

/// Worker -> coordinator receipt of a dispatch batch, sent before training
/// starts (protocol v3, elastic sessions only). Lets the job table mark
/// the batch as held by the worker: a worker that dies after acking held
/// real work (replay it); one that dies without acking never saw it.
struct DispatchAckMsg {
  std::uint64_t batch_seq = 0;
  std::uint32_t dispatch_count = 0;
};

std::vector<std::uint8_t> serialize_dispatch_ack(const DispatchAckMsg& m);
DispatchAckMsg parse_dispatch_ack(const std::uint8_t* data,
                                  std::size_t size);

// ----------------------------------------------------------------- error

std::vector<std::uint8_t> serialize_error(const std::string& message);
std::string parse_error(const std::uint8_t* data, std::size_t size);

/// Converts a wire update back into the engine's value type.
fl::ClientUpdate to_client_update(WireUpdate&& w);
WireUpdate to_wire_update(const fl::ClientUpdate& u);

}  // namespace fedtrip::net
