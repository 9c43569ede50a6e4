#include "net/protocol.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "comm/registry.h"

namespace fedtrip::net {

namespace {

using wire::WireError;
using wire::WireReader;
using wire::WireWriter;

// ---- shared field helpers: every variable-length field bounds-checks
// ---- its count against the remaining buffer BEFORE allocating.

void write_string(WireWriter& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s.data(), s.size());
}

std::string read_string(WireReader& r) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining()) {
    throw WireError("string length " + std::to_string(n) +
                    " exceeds remaining buffer (" +
                    std::to_string(r.remaining()) + ")");
  }
  std::string s(n, '\0');
  r.bytes(s.data(), n);
  return s;
}

std::vector<float> read_f32_vec(WireReader& r) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / 4) {
    throw WireError("float vector count " + std::to_string(n) +
                    " exceeds remaining buffer (" +
                    std::to_string(r.remaining()) + " bytes)");
  }
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = r.f32();
  return v;
}

std::vector<float> read_f32_vec_enveloped(WireReader& r, const WireCodec* wc,
                                          WireStats* stats) {
  if (wc == nullptr || !wc->active()) {
    auto v = read_f32_vec(r);
    if (stats != nullptr) {
      stats->raw_bytes += 8 + 4 * v.size();
      stats->wire_bytes += 8 + 4 * v.size();
      ++stats->raw_vecs;
    }
    return v;
  }
  const std::uint8_t mode = r.u8();
  if (mode > 1) {
    throw WireError("wire-codec envelope mode must be 0 or 1, got " +
                    std::to_string(mode));
  }
  if (mode == 0) {
    auto v = read_f32_vec(r);
    if (stats != nullptr) {
      stats->raw_bytes += 8 + 4 * v.size();
      stats->wire_bytes += 1 + 8 + 4 * v.size();
      ++stats->raw_vecs;
    }
    return v;
  }
  const std::uint32_t len = r.u32();
  if (len > r.remaining()) {
    throw WireError("encoded vector length " + std::to_string(len) +
                    " exceeds remaining buffer (" +
                    std::to_string(r.remaining()) + ")");
  }
  std::vector<std::uint8_t> buf(len);
  r.bytes(buf.data(), len);
  auto v = wc->decode(buf.data(), buf.size());
  if (stats != nullptr) {
    stats->raw_bytes += 8 + 4 * v.size();
    stats->wire_bytes += 1 + 4 + len;
    ++stats->encoded_vecs;
  }
  return v;
}

// ---- sinks: the two emission backends every training-path serializer is
// ---- written against exactly once. BufferSink materialises one
// ---- contiguous buffer (the legacy path, still the reference for tests
// ---- and tools); SegmentSink gathers borrowed float spans + owned
// ---- metadata chunks for writev-style sends. Identical byte streams by
// ---- construction.

struct BufferSink {
  WireWriter w;
  void u8(std::uint8_t v) { w.u8(v); }
  void u32(std::uint32_t v) { w.u32(v); }
  void u64(std::uint64_t v) { w.u64(v); }
  void f64(double v) { w.f64(v); }
  void bytes(const void* d, std::size_t n) { w.bytes(d, n); }
  void f32_array(const std::vector<float>& v) {
    for (float x : v) w.f32(x);
  }
};

struct SegmentSink {
  SegmentWriter& s;
  void u8(std::uint8_t v) { s.u8(v); }
  void u32(std::uint32_t v) { s.u32(v); }
  void u64(std::uint64_t v) { s.u64(v); }
  void f64(double v) { s.f64(v); }
  void bytes(const void* d, std::size_t n) { s.bytes(d, n); }
  void f32_array(const std::vector<float>& v) { s.f32_array(v); }
};

template <class Sink>
void emit_f32_vec(Sink& sink, const std::vector<float>& v,
                  const WireCodec* wc, WireStats* stats) {
  if (stats != nullptr) stats->raw_bytes += 8 + 4 * v.size();
  if (wc != nullptr && wc->active()) {
    WireCodec::EncodedVec enc = wc->encode(v);
    if (enc.encoded) {
      sink.u8(1);
      sink.u32(static_cast<std::uint32_t>(enc.bytes.size()));
      sink.bytes(enc.bytes.data(), enc.bytes.size());
      if (stats != nullptr) {
        stats->wire_bytes += 1 + 4 + enc.bytes.size();
        ++stats->encoded_vecs;
      }
      return;
    }
    sink.u8(0);
    if (stats != nullptr) {
      stats->wire_bytes += 1 + 8 + 4 * v.size();
      ++stats->raw_vecs;
    }
  } else if (stats != nullptr) {
    stats->wire_bytes += 8 + 4 * v.size();
    ++stats->raw_vecs;
  }
  sink.u64(v.size());
  sink.f32_array(v);
}

template <class Sink>
void emit_dispatch_batch(Sink& sink, const DispatchBatchMsg& m,
                         const WireCodec* wc, WireStats* stats) {
  sink.u64(m.batch_seq);
  sink.u32(static_cast<std::uint32_t>(m.param_sets.size()));
  for (const auto& p : m.param_sets) emit_f32_vec(sink, p, wc, stats);
  sink.u32(static_cast<std::uint32_t>(m.dispatches.size()));
  for (const auto& d : m.dispatches) {
    sink.u64(d.seq);
    sink.u64(d.client_id);
    sink.u64(d.round);
    sink.u64(d.train_key);
    sink.u32(d.param_set);
    sink.u8(d.has_history ? 1 : 0);
    if (d.has_history) {
      sink.u64(d.history_round);
      emit_f32_vec(sink, d.history_params, wc, stats);
    }
  }
}

template <class Sink>
void emit_train_result(Sink& sink, const TrainResultMsg& m,
                       const WireCodec* wc, WireStats* stats) {
  sink.u64(m.batch_seq);
  sink.f64(m.pre_round_flops);
  sink.u32(static_cast<std::uint32_t>(m.updates.size()));
  for (const auto& u : m.updates) {
    sink.u64(u.client_id);
    sink.u64(u.num_samples);
    sink.f64(u.train_loss);
    sink.f64(u.flops);
    sink.u64(u.extra_upload_floats);
    emit_f32_vec(sink, u.params, wc, stats);
    emit_f32_vec(sink, u.aux, wc, stats);
  }
}

void write_bool(WireWriter& w, bool b) { w.u8(b ? 1 : 0); }

bool read_bool(WireReader& r) {
  const std::uint8_t b = r.u8();
  if (b > 1) {
    throw WireError("bool field must be 0 or 1, got " + std::to_string(b));
  }
  return b == 1;
}

std::uint32_t read_enum(WireReader& r, std::uint32_t max_value,
                        const char* what) {
  const std::uint32_t v = r.u32();
  if (v > max_value) {
    throw WireError(std::string(what) + " enum value " + std::to_string(v) +
                    " out of range [0, " + std::to_string(max_value) + "]");
  }
  return v;
}

// ---- config sub-blocks (field order is part of the protocol: any change
// ---- bumps kProtocolVersion — docs/TRANSPORT.md).

void write_model(WireWriter& w, const nn::ModelSpec& m) {
  w.u32(static_cast<std::uint32_t>(m.arch));
  w.u64(static_cast<std::uint64_t>(m.channels));
  w.u64(static_cast<std::uint64_t>(m.height));
  w.u64(static_cast<std::uint64_t>(m.width));
  w.u64(static_cast<std::uint64_t>(m.classes));
  w.f64(m.width_mult);
  w.f32(m.dropout);
}

nn::ModelSpec read_model(WireReader& r) {
  nn::ModelSpec m;
  m.arch = static_cast<nn::Arch>(
      read_enum(r, static_cast<std::uint32_t>(nn::Arch::kAlexNet), "arch"));
  m.channels = static_cast<std::int64_t>(r.u64());
  m.height = static_cast<std::int64_t>(r.u64());
  m.width = static_cast<std::int64_t>(r.u64());
  m.classes = static_cast<std::int64_t>(r.u64());
  m.width_mult = r.f64();
  m.dropout = r.f32();
  return m;
}

void write_comm(WireWriter& w, const comm::CommConfig& c) {
  write_string(w, c.uplink);
  write_string(w, c.downlink);
  write_bool(w, c.delta_uplink);
  w.f32(c.params.topk_fraction);
  w.u32(static_cast<std::uint32_t>(c.params.qsgd_bits));
  w.f32(c.params.mask_keep);
  w.u32(static_cast<std::uint32_t>(c.network.profile));
  w.f64(c.network.bandwidth_mbps);
  w.f64(c.network.latency_ms);
  w.f64(c.network.het_spread);
  w.f64(c.network.straggler_fraction);
  w.f64(c.network.straggler_slowdown);
  w.f64(c.network.server_bandwidth_mbps);
}

comm::CommConfig read_comm(WireReader& r) {
  comm::CommConfig c;
  c.uplink = read_string(r);
  c.downlink = read_string(r);
  c.delta_uplink = read_bool(r);
  c.params.topk_fraction = r.f32();
  c.params.qsgd_bits = static_cast<int>(r.u32());
  c.params.mask_keep = r.f32();
  c.network.profile = static_cast<comm::NetProfile>(read_enum(
      r, static_cast<std::uint32_t>(comm::NetProfile::kStraggler),
      "net profile"));
  c.network.bandwidth_mbps = r.f64();
  c.network.latency_ms = r.f64();
  c.network.het_spread = r.f64();
  c.network.straggler_fraction = r.f64();
  c.network.straggler_slowdown = r.f64();
  c.network.server_bandwidth_mbps = r.f64();
  return c;
}

void write_sched(WireWriter& w, const sched::SchedConfig& s) {
  write_string(w, s.policy);
  w.u64(s.overselect);
  w.u64(s.buffer_size);
  w.f64(s.staleness_alpha);
  w.f64(s.deadline_s);
}

sched::SchedConfig read_sched(WireReader& r) {
  sched::SchedConfig s;
  s.policy = read_string(r);
  s.overselect = static_cast<std::size_t>(r.u64());
  s.buffer_size = static_cast<std::size_t>(r.u64());
  s.staleness_alpha = r.f64();
  s.deadline_s = r.f64();
  return s;
}

void write_clients(WireWriter& w, const clients::ClientsConfig& c) {
  write_string(w, c.compute_profile);
  w.f64(c.seconds_per_sample);
  w.f64(c.lognormal_sigma);
  w.f64(c.bimodal_fraction);
  w.f64(c.bimodal_slowdown);
  write_string(w, c.availability);
  write_string(w, c.availability_trace);
  w.f64(c.markov_mean_on_s);
  w.f64(c.markov_mean_off_s);
}

clients::ClientsConfig read_clients(WireReader& r) {
  clients::ClientsConfig c;
  c.compute_profile = read_string(r);
  c.seconds_per_sample = r.f64();
  c.lognormal_sigma = r.f64();
  c.bimodal_fraction = r.f64();
  c.bimodal_slowdown = r.f64();
  c.availability = read_string(r);
  c.availability_trace = read_string(r);
  c.markov_mean_on_s = r.f64();
  c.markov_mean_off_s = r.f64();
  return c;
}

void write_config(WireWriter& w, const fl::ExperimentConfig& c) {
  write_model(w, c.model);
  write_string(w, c.dataset);
  w.f64(c.data_scale);
  w.u32(static_cast<std::uint32_t>(c.heterogeneity));
  w.u64(c.num_clients);
  w.u64(c.clients_per_round);
  w.u64(c.rounds);
  w.u64(c.local_epochs);
  w.u64(c.batch_size);
  w.f32(c.lr);
  w.f32(c.momentum);
  w.u64(c.seed);
  w.u64(c.eval_every);
  w.u64(c.eval_max_samples);
  w.u64(c.workers);
  write_comm(w, c.comm);
  write_sched(w, c.sched);
  write_clients(w, c.clients);
  // Observability enablement (protocol v2). Output paths (trace_out /
  // metrics_out) are coordinator-only and deliberately not shipped: the
  // worker accumulates and the coordinator exports.
  write_bool(w, c.obs.enabled);
  write_bool(w, c.obs.spans);
  write_bool(w, c.obs.counters);
  // Client-data block (protocol v4): a worker must construct its
  // Simulation in the same data mode as the coordinator or every shard it
  // trains diverges.
  write_string(w, c.client_data);
  w.u64(c.shard_samples);
  write_bool(w, c.track_participation);
  write_bool(w, c.partition_stats);
  // Socket-transport block (protocol v5): the wire codec both peers will
  // run on dispatch/result payloads. Part of the config so the worker's
  // parse side and the coordinator's emit side can never disagree.
  write_string(w, c.net.wire_codec);
}

fl::ExperimentConfig read_config(WireReader& r) {
  fl::ExperimentConfig c;
  c.model = read_model(r);
  c.dataset = read_string(r);
  c.data_scale = r.f64();
  c.heterogeneity = static_cast<data::Heterogeneity>(read_enum(
      r, static_cast<std::uint32_t>(data::Heterogeneity::kOrthogonal10),
      "heterogeneity"));
  c.num_clients = static_cast<std::size_t>(r.u64());
  c.clients_per_round = static_cast<std::size_t>(r.u64());
  c.rounds = static_cast<std::size_t>(r.u64());
  c.local_epochs = static_cast<std::size_t>(r.u64());
  c.batch_size = static_cast<std::size_t>(r.u64());
  c.lr = r.f32();
  c.momentum = r.f32();
  c.seed = r.u64();
  c.eval_every = static_cast<std::size_t>(r.u64());
  c.eval_max_samples = static_cast<std::size_t>(r.u64());
  c.workers = static_cast<std::size_t>(r.u64());
  c.comm = read_comm(r);
  c.sched = read_sched(r);
  c.clients = read_clients(r);
  c.obs.enabled = read_bool(r);
  c.obs.spans = read_bool(r);
  c.obs.counters = read_bool(r);
  c.client_data = read_string(r);
  c.shard_samples = static_cast<std::size_t>(r.u64());
  c.track_participation = read_bool(r);
  c.partition_stats = read_bool(r);
  c.net.wire_codec = read_string(r);
  // Validate against the codec registry here, where every other enum-ish
  // field is validated — a bad name is a malformed setup, not a crash
  // three layers later when the first dispatch arrives.
  try {
    (void)comm::make_compressor(c.net.wire_codec, c.comm.params);
  } catch (const std::invalid_argument& e) {
    throw WireError(std::string("unknown wire codec in setup: ") + e.what());
  }
  return c;
}

void write_algo(WireWriter& w, const algorithms::AlgoParams& p) {
  w.f32(p.mu);
  w.f32(p.xi_scale);
  w.f32(p.moon_mu);
  w.f32(p.moon_tau);
  w.f32(p.feddyn_alpha);
  w.f32(p.slowmo_beta);
  w.f32(p.slowmo_lr);
  w.f32(p.lr);
  w.f32(p.server_beta1);
  w.f32(p.server_beta2);
  w.f32(p.server_lr);
}

algorithms::AlgoParams read_algo(WireReader& r) {
  algorithms::AlgoParams p;
  p.mu = r.f32();
  p.xi_scale = r.f32();
  p.moon_mu = r.f32();
  p.moon_tau = r.f32();
  p.feddyn_alpha = r.f32();
  p.slowmo_beta = r.f32();
  p.slowmo_lr = r.f32();
  p.lr = r.f32();
  p.server_beta1 = r.f32();
  p.server_beta2 = r.f32();
  p.server_lr = r.f32();
  return p;
}

}  // namespace

// -------------------------------------------------------------- messages

std::vector<std::uint8_t> serialize_hello(const HelloMsg& m) {
  WireWriter w;
  w.u16(m.version_min);
  w.u16(m.version_max);
  return w.take();
}

HelloMsg parse_hello(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  HelloMsg m;
  m.version_min = r.u16();
  m.version_max = r.u16();
  r.expect_end();
  if (m.version_min > m.version_max) {
    throw WireError("hello version range inverted: [" +
                    std::to_string(m.version_min) + ", " +
                    std::to_string(m.version_max) + "]");
  }
  return m;
}

std::uint16_t negotiate_version(const HelloMsg& ours,
                                const HelloMsg& theirs) {
  const std::uint16_t lo = std::max(ours.version_min, theirs.version_min);
  const std::uint16_t hi = std::min(ours.version_max, theirs.version_max);
  if (lo > hi) {
    throw NetError(
        "bad protocol version: peer speaks [" +
        std::to_string(theirs.version_min) + ", " +
        std::to_string(theirs.version_max) + "], this build speaks [" +
        std::to_string(ours.version_min) + ", " +
        std::to_string(ours.version_max) + "]");
  }
  return hi;
}

std::vector<std::uint8_t> serialize_setup(const SetupMsg& m) {
  WireWriter w;
  write_string(w, m.method);
  write_algo(w, m.algo);
  write_config(w, m.config);
  w.u32(m.worker_index);
  w.u32(m.num_workers);
  write_string(w, m.idx_dir);
  write_bool(w, m.elastic);
  w.f64(m.heartbeat_interval_s);
  w.u16(m.rejoin_port);
  return w.take();
}

SetupMsg parse_setup(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  SetupMsg m;
  m.method = read_string(r);
  m.algo = read_algo(r);
  m.config = read_config(r);
  m.worker_index = r.u32();
  m.num_workers = r.u32();
  m.idx_dir = read_string(r);
  m.elastic = read_bool(r);
  m.heartbeat_interval_s = r.f64();
  m.rejoin_port = r.u16();
  r.expect_end();
  if (m.elastic && !(m.heartbeat_interval_s > 0.0)) {
    throw WireError("elastic setup needs a positive heartbeat interval, got " +
                    std::to_string(m.heartbeat_interval_s));
  }
  // Static pools shard by (worker_index, num_workers), so the coordinates
  // must be a valid shard. An elastic session drops shard semantics —
  // num_workers is the *initial* fleet size and a rejoiner's slot index
  // may exceed it (slots are append-only; docs/TRANSPORT.md).
  if (m.num_workers == 0 ||
      (!m.elastic && m.worker_index >= m.num_workers)) {
    throw WireError("setup shard coordinates out of range: worker " +
                    std::to_string(m.worker_index) + " of " +
                    std::to_string(m.num_workers));
  }
  return m;
}

std::vector<std::uint8_t> serialize_setup_ack(const SetupAckMsg& m) {
  WireWriter w;
  w.u64(m.param_dim);
  return w.take();
}

SetupAckMsg parse_setup_ack(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  SetupAckMsg m;
  m.param_dim = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> serialize_dispatch_batch(const DispatchBatchMsg& m,
                                                   const WireCodec* wc,
                                                   WireStats* stats) {
  BufferSink sink;
  emit_dispatch_batch(sink, m, wc, stats);
  return sink.w.take();
}

void dispatch_batch_segments(const DispatchBatchMsg& m, const WireCodec* wc,
                             WireStats* stats, SegmentWriter& out) {
  SegmentSink sink{out};
  emit_dispatch_batch(sink, m, wc, stats);
}

DispatchBatchMsg parse_dispatch_batch(const std::uint8_t* data,
                                      std::size_t size, const WireCodec* wc,
                                      WireStats* stats) {
  WireReader r(data, size);
  DispatchBatchMsg m;
  m.batch_seq = r.u64();
  const std::uint32_t num_sets = r.u32();
  m.param_sets.reserve(std::min<std::size_t>(num_sets, 1024));
  for (std::uint32_t i = 0; i < num_sets; ++i) {
    m.param_sets.push_back(read_f32_vec_enveloped(r, wc, stats));
  }
  const std::uint32_t num_dispatches = r.u32();
  m.dispatches.reserve(std::min<std::size_t>(num_dispatches, 1024));
  for (std::uint32_t i = 0; i < num_dispatches; ++i) {
    WireDispatch d;
    d.seq = r.u64();
    d.client_id = r.u64();
    d.round = r.u64();
    d.train_key = r.u64();
    d.param_set = r.u32();
    if (d.param_set >= m.param_sets.size()) {
      throw WireError("dispatch references param set " +
                      std::to_string(d.param_set) + " of " +
                      std::to_string(m.param_sets.size()));
    }
    d.has_history = read_bool(r);
    if (d.has_history) {
      d.history_round = r.u64();
      d.history_params = read_f32_vec_enveloped(r, wc, stats);
    }
    m.dispatches.push_back(std::move(d));
  }
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> serialize_train_result(const TrainResultMsg& m,
                                                 const WireCodec* wc,
                                                 WireStats* stats) {
  BufferSink sink;
  emit_train_result(sink, m, wc, stats);
  return sink.w.take();
}

void train_result_segments(const TrainResultMsg& m, const WireCodec* wc,
                           WireStats* stats, SegmentWriter& out) {
  SegmentSink sink{out};
  emit_train_result(sink, m, wc, stats);
}

TrainResultMsg parse_train_result(const std::uint8_t* data, std::size_t size,
                                  const WireCodec* wc, WireStats* stats) {
  WireReader r(data, size);
  TrainResultMsg m;
  m.batch_seq = r.u64();
  m.pre_round_flops = r.f64();
  const std::uint32_t count = r.u32();
  m.updates.reserve(std::min<std::size_t>(count, 1024));
  for (std::uint32_t i = 0; i < count; ++i) {
    WireUpdate u;
    u.client_id = r.u64();
    u.num_samples = r.u64();
    u.train_loss = r.f64();
    u.flops = r.f64();
    u.extra_upload_floats = r.u64();
    u.params = read_f32_vec_enveloped(r, wc, stats);
    u.aux = read_f32_vec_enveloped(r, wc, stats);
    m.updates.push_back(std::move(u));
  }
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> serialize_heartbeat(const HeartbeatMsg& m) {
  WireWriter w;
  w.u64(m.dispatches_done);
  w.u64(m.batch_seq);
  return w.take();
}

HeartbeatMsg parse_heartbeat(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  HeartbeatMsg m;
  m.dispatches_done = r.u64();
  m.batch_seq = r.u64();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> serialize_dispatch_ack(const DispatchAckMsg& m) {
  WireWriter w;
  w.u64(m.batch_seq);
  w.u32(m.dispatch_count);
  return w.take();
}

DispatchAckMsg parse_dispatch_ack(const std::uint8_t* data,
                                  std::size_t size) {
  WireReader r(data, size);
  DispatchAckMsg m;
  m.batch_seq = r.u64();
  m.dispatch_count = r.u32();
  r.expect_end();
  return m;
}

std::vector<std::uint8_t> serialize_error(const std::string& message) {
  WireWriter w;
  w.bytes(message.data(), message.size());
  return w.take();
}

std::string parse_error(const std::uint8_t* data, std::size_t size) {
  return std::string(reinterpret_cast<const char*>(data), size);
}

fl::ClientUpdate to_client_update(WireUpdate&& w) {
  fl::ClientUpdate u;
  u.client_id = static_cast<std::size_t>(w.client_id);
  u.params = std::move(w.params);
  u.num_samples = static_cast<std::size_t>(w.num_samples);
  u.train_loss = w.train_loss;
  u.flops = w.flops;
  u.extra_upload_floats = static_cast<std::size_t>(w.extra_upload_floats);
  u.aux = std::move(w.aux);
  return u;
}

WireUpdate to_wire_update(const fl::ClientUpdate& u) {
  WireUpdate w;
  w.client_id = u.client_id;
  w.num_samples = u.num_samples;
  w.train_loss = u.train_loss;
  w.flops = u.flops;
  w.extra_upload_floats = u.extra_upload_floats;
  w.params = u.params;
  w.aux = u.aux;
  return w;
}

}  // namespace fedtrip::net
