#include "net/golden.h"

#include "net/protocol.h"
#include "obs/stats.h"

namespace fedtrip::net::golden {

namespace {

SetupMsg canonical_setup() {
  SetupMsg m;
  m.method = "FedTrip";
  m.algo.mu = 0.5f;
  m.algo.xi_scale = 1.0f;
  m.config.model.arch = nn::Arch::kMLP;
  m.config.dataset = "mnist";
  m.config.data_scale = 0.25;
  m.config.heterogeneity = data::Heterogeneity::kDir05;
  m.config.num_clients = 4;
  m.config.clients_per_round = 2;
  m.config.rounds = 3;
  m.config.batch_size = 8;
  m.config.seed = 2024;
  m.config.comm.uplink = "ef+topk";
  m.config.comm.delta_uplink = true;
  m.config.sched.policy = "deadline";
  m.config.clients.availability = "markov";
  m.worker_index = 1;
  m.num_workers = 2;
  m.config.obs.enabled = true;
  m.config.obs.spans = true;
  m.config.obs.counters = true;
  // Client-data block (protocol v4): non-default values so the fixture
  // pins every field's position on the wire.
  m.config.client_data = "virtual";
  m.config.shard_samples = 24;
  m.config.track_participation = false;
  m.config.partition_stats = false;
  // Elastic-coordinator block (protocol v3).
  m.elastic = true;
  m.heartbeat_interval_s = 0.25;
  m.rejoin_port = 45454;
  // Socket-transport block (protocol v5): a non-default wire codec so the
  // fixture pins the trailer's position and the codec-framed records below.
  m.config.net.wire_codec = "topk";
  return m;
}

obs::TraceData canonical_stats() {
  obs::TraceData d;
  d.counters["net.frames_recv"] = 3;
  d.counters["sched.dispatches"] = 7;
  d.gauges["comm.ef_residual_l2.up"] = 0.125;
  d.timers_ns["wire.serialize"] = 123456;
  obs::Span s;
  s.name = "train_shard";
  s.clock = obs::SpanClock::kWall;
  s.track = 1;
  s.t0 = 0.25;
  s.t1 = 0.75;
  s.args = {{"client", 3.0}, {"round", 1.0}};
  d.spans.push_back(std::move(s));
  // Histogram section (protocol v6): three known samples so the fixture
  // pins count/sum/min/max and the bucket the samples land in.
  obs::Histogram& h = d.histograms["wall.train_shard_s"];
  h.observe(0.5);
  h.observe(0.5);
  h.observe(2.0);
  return d;
}

DispatchBatchMsg canonical_batch() {
  DispatchBatchMsg b;
  b.batch_seq = 1;
  b.param_sets = {{0.5f, -0.5f, 1.0f, -1.0f}, {0.25f, 0.25f, 0.25f, 0.25f}};
  WireDispatch d0;
  d0.seq = 1;
  d0.client_id = 1;
  d0.round = 1;
  d0.train_key = 0x100001;
  d0.param_set = 0;
  WireDispatch d1;
  d1.seq = 2;
  d1.client_id = 3;
  d1.round = 1;
  d1.train_key = 0x100003;
  d1.param_set = 1;
  d1.has_history = true;
  d1.history_round = 1;
  d1.history_params = {1.5f, 2.5f, -3.5f, 4.5f};
  b.dispatches = {d0, d1};
  return b;
}

// A batch shaped to pin both wire-codec envelope modes: param set 0 and
// the history vector are sparse (nnz <= k, losslessly encodable -> mode 1),
// param set 1 is dense (falls back to mode 0).
DispatchBatchMsg canonical_codec_batch() {
  DispatchBatchMsg b;
  b.batch_seq = 2;
  b.param_sets = {{0.0f, 0.0f, 3.5f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f},
                  {0.25f, -0.25f, 0.5f, -0.5f, 0.75f, -0.75f, 1.0f, -1.0f}};
  WireDispatch d0;
  d0.seq = 3;
  d0.client_id = 0;
  d0.round = 2;
  d0.train_key = 0x200000;
  d0.param_set = 0;
  WireDispatch d1;
  d1.seq = 4;
  d1.client_id = 2;
  d1.round = 2;
  d1.train_key = 0x200002;
  d1.param_set = 1;
  d1.has_history = true;
  d1.history_round = 1;
  d1.history_params = {0.0f, 0.0f, 0.0f, -1.25f, 0.0f, 0.0f, 0.0f, 0.0f};
  b.dispatches = {d0, d1};
  return b;
}

TrainResultMsg canonical_result() {
  TrainResultMsg r;
  r.batch_seq = 1;
  r.pre_round_flops = 0.0;
  WireUpdate u0;
  u0.client_id = 1;
  u0.num_samples = 8;
  u0.train_loss = 2.25;
  u0.flops = 1024.0;
  u0.params = {0.125f, -0.125f, 0.75f, -0.75f};
  WireUpdate u1;
  u1.client_id = 3;
  u1.num_samples = 6;
  u1.train_loss = 1.5;
  u1.flops = 768.0;
  u1.extra_upload_floats = 2;
  u1.params = {-1.0f, 1.0f, -2.0f, 2.0f};
  u1.aux = {9.0f, -9.0f};
  r.updates = {u0, u1};
  return r;
}

}  // namespace

wire::golden::Fixture session_fixture() {
  const SetupMsg setup = canonical_setup();
  // The Setup-negotiated wire codec (protocol v5): both peers build it
  // from the same config, exactly as WorkerPool/Worker do.
  const WireCodec wc(setup.config.net.wire_codec, setup.config.comm.params,
                     setup.config.seed);
  std::vector<wire::Record> records;
  records.push_back({wire::RecordType::kNetHello, 0,
                     serialize_hello(HelloMsg{8, 8})});
  records.push_back({wire::RecordType::kNetHello, 0,
                     serialize_hello(HelloMsg{8, 8})});
  records.push_back(
      {wire::RecordType::kNetSetup, 0, serialize_setup(setup)});
  records.push_back({wire::RecordType::kNetSetupAck, 0,
                     serialize_setup_ack(SetupAckMsg{42})});
  records.push_back({wire::RecordType::kNetDispatch, 0,
                     serialize_dispatch_batch(canonical_batch())});
  records.push_back({wire::RecordType::kNetDispatchAck, 0,
                     serialize_dispatch_ack(DispatchAckMsg{1, 2})});
  records.push_back({wire::RecordType::kNetHeartbeat, 0,
                     serialize_heartbeat(HeartbeatMsg{5, 1})});
  records.push_back({wire::RecordType::kNetResult, 0,
                     serialize_train_result(canonical_result())});
  // Codec-framed pair (protocol v5): record aux carries the codec tag so
  // offline tools can decode without the Setup; the batch pins both
  // envelope modes (sparse -> encoded, dense -> raw fallback).
  records.push_back({wire::RecordType::kNetDispatch, wc.tag(),
                     serialize_dispatch_batch(canonical_codec_batch(), &wc)});
  records.push_back({wire::RecordType::kNetResult, wc.tag(),
                     serialize_train_result(canonical_result(), &wc)});
  records.push_back({wire::RecordType::kNetStatsReq, 0, {}});
  records.push_back({wire::RecordType::kNetStats, 0,
                     obs::serialize_stats(canonical_stats())});
  records.push_back({wire::RecordType::kNetError, 0,
                     serialize_error("example worker diagnostic")});
  records.push_back({wire::RecordType::kNetShutdown, 0, {}});
  return {"net_session.bin", wire::write_container(records)};
}

}  // namespace fedtrip::net::golden
