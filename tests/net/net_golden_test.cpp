// Format-stability gate for the transport messages: the committed
// tests/data/wire/net_session.bin must byte-match what src/net/golden.cpp
// builds today AND still parse into the pinned field values. Any
// accidental change to a message layout — field order, a config field
// added without a protocol-version bump, framing — breaks this against
// frozen bytes; an intentional change requires regenerating with
// wire_golden_gen and updating docs/TRANSPORT.md.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "net/golden.h"
#include "net/protocol.h"
#include "obs/stats.h"
#include "wire/container.h"

namespace fedtrip {
namespace {

std::vector<std::uint8_t> read_committed() {
  const std::string path = std::string(FEDTRIP_SOURCE_DIR) +
                           "/tests/data/wire/net_session.bin";
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in) << "missing fixture " << path
                  << " — regenerate with: ./wire_golden_gen";
  if (!in) return {};
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> buf(size);
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(size));
  return buf;
}

TEST(NetGoldenTest, CommittedSessionByteMatches) {
  const auto fixture = net::golden::session_fixture();
  EXPECT_EQ(fixture.filename, "net_session.bin");
  EXPECT_EQ(read_committed(), fixture.bytes)
      << "net_session.bin drifted from src/net/golden.cpp — either a "
      << "message layout changed accidentally, or an intentional protocol "
      << "change needs a kProtocolVersion bump, regenerated fixtures "
      << "(wire_golden_gen) and a docs/TRANSPORT.md update";
}

TEST(NetGoldenTest, CommittedSessionParses) {
  const auto bytes = read_committed();
  ASSERT_FALSE(bytes.empty());
  const auto records = wire::read_container(bytes.data(), bytes.size());
  ASSERT_EQ(records.size(), 14u);

  const auto hello =
      net::parse_hello(records[0].bytes.data(), records[0].bytes.size());
  EXPECT_EQ(hello.version_max, net::kProtocolVersion)
      << "the canonical session must speak the current protocol version";

  ASSERT_EQ(records[2].type, wire::RecordType::kNetSetup);
  const auto setup =
      net::parse_setup(records[2].bytes.data(), records[2].bytes.size());
  EXPECT_EQ(setup.method, "FedTrip");
  EXPECT_EQ(setup.config.num_clients, 4u);
  EXPECT_EQ(setup.config.comm.uplink, "ef+topk");
  EXPECT_EQ(setup.worker_index, 1u);
  // Client-data block (protocol v4).
  EXPECT_EQ(setup.config.client_data, "virtual");
  EXPECT_EQ(setup.config.shard_samples, 24u);
  EXPECT_FALSE(setup.config.track_participation);
  EXPECT_FALSE(setup.config.partition_stats);
  // Elastic-coordinator block (protocol v3).
  EXPECT_TRUE(setup.elastic);
  EXPECT_DOUBLE_EQ(setup.heartbeat_interval_s, 0.25);
  EXPECT_EQ(setup.rejoin_port, 45454u);
  // Socket-transport block (protocol v5).
  EXPECT_EQ(setup.config.net.wire_codec, "topk");

  ASSERT_EQ(records[4].type, wire::RecordType::kNetDispatch);
  const auto batch = net::parse_dispatch_batch(records[4].bytes.data(),
                                               records[4].bytes.size());
  ASSERT_EQ(batch.dispatches.size(), 2u);
  EXPECT_TRUE(batch.dispatches[1].has_history);
  EXPECT_EQ(batch.dispatches[1].history_params.size(), 4u);

  // Elastic lifecycle records (protocol v3): the batch's receipt ack and
  // a heartbeat beacon mid-execution.
  ASSERT_EQ(records[5].type, wire::RecordType::kNetDispatchAck);
  const auto ack = net::parse_dispatch_ack(records[5].bytes.data(),
                                           records[5].bytes.size());
  EXPECT_EQ(ack.batch_seq, 1u);
  EXPECT_EQ(ack.dispatch_count, 2u);
  ASSERT_EQ(records[6].type, wire::RecordType::kNetHeartbeat);
  const auto beat = net::parse_heartbeat(records[6].bytes.data(),
                                         records[6].bytes.size());
  EXPECT_EQ(beat.dispatches_done, 5u);
  EXPECT_EQ(beat.batch_seq, 1u);

  ASSERT_EQ(records[7].type, wire::RecordType::kNetResult);
  const auto result = net::parse_train_result(records[7].bytes.data(),
                                              records[7].bytes.size());
  ASSERT_EQ(result.updates.size(), 2u);
  EXPECT_EQ(result.updates[1].aux.size(), 2u);

  // Codec-framed pair (protocol v5): the record aux carries the codec tag
  // and the payload's float vectors travel enveloped. The codec is rebuilt
  // from the Setup config exactly as a worker would build it.
  const net::WireCodec wc(setup.config.net.wire_codec,
                          setup.config.comm.params, setup.config.seed);
  ASSERT_TRUE(wc.active());
  ASSERT_EQ(records[8].type, wire::RecordType::kNetDispatch);
  EXPECT_EQ(records[8].aux, wc.tag());
  const auto codec_batch = net::parse_dispatch_batch(
      records[8].bytes.data(), records[8].bytes.size(), &wc);
  EXPECT_EQ(codec_batch.batch_seq, 2u);
  ASSERT_EQ(codec_batch.param_sets.size(), 2u);
  EXPECT_EQ(codec_batch.param_sets[0],
            (std::vector<float>{0.0f, 0.0f, 3.5f, 0.0f, 0.0f, 0.0f, 0.0f,
                                0.0f}));
  ASSERT_EQ(codec_batch.dispatches.size(), 2u);
  EXPECT_EQ(codec_batch.dispatches[1].history_params[3], -1.25f);
  ASSERT_EQ(records[9].type, wire::RecordType::kNetResult);
  EXPECT_EQ(records[9].aux, wc.tag());
  const auto codec_result = net::parse_train_result(
      records[9].bytes.data(), records[9].bytes.size(), &wc);
  ASSERT_EQ(codec_result.updates.size(), 2u);
  EXPECT_EQ(codec_result.updates[1].aux.size(), 2u);

  // Stats collection pair (protocol v2): an empty request followed by the
  // worker's StatsReport with pinned registry entries and one wall span.
  ASSERT_EQ(records[10].type, wire::RecordType::kNetStatsReq);
  EXPECT_TRUE(records[10].bytes.empty());
  ASSERT_EQ(records[11].type, wire::RecordType::kNetStats);
  const auto stats =
      obs::parse_stats(records[11].bytes.data(), records[11].bytes.size());
  EXPECT_EQ(stats.counters.at("net.frames_recv"), 3u);
  EXPECT_EQ(stats.counters.at("sched.dispatches"), 7u);
  EXPECT_DOUBLE_EQ(stats.gauges.at("comm.ef_residual_l2.up"), 0.125);
  EXPECT_EQ(stats.timers_ns.at("wire.serialize"), 123456u);
  // Histogram section (protocol v6): fixed 86-bucket layout, exact
  // extremes, counts where the canonical observations landed.
  const obs::Histogram& hist = stats.histograms.at("wall.train_shard_s");
  EXPECT_EQ(hist.count, 3u);
  EXPECT_DOUBLE_EQ(hist.sum, 3.0);
  EXPECT_DOUBLE_EQ(hist.min, 0.5);
  EXPECT_DOUBLE_EQ(hist.max, 2.0);
  EXPECT_EQ(hist.buckets[obs::Histogram::bucket_of(0.5)], 2u);
  EXPECT_EQ(hist.buckets[obs::Histogram::bucket_of(2.0)], 1u);
  ASSERT_EQ(stats.spans.size(), 1u);
  EXPECT_EQ(obs::format_span(stats.spans[0]),
            "train_shard(client=3, round=1)");
  EXPECT_EQ(stats.spans[0].clock, obs::SpanClock::kWall);

  EXPECT_EQ(records[13].type, wire::RecordType::kNetShutdown);
  EXPECT_TRUE(records[13].bytes.empty());
}

}  // namespace
}  // namespace fedtrip
