// Failure semantics of the distributed runner: a worker that dies
// mid-round, reports an error, or speaks the wrong protocol version must
// fail the run with a clear typed diagnostic — never hang the
// coordinator, never aggregate a partial round. The "worker" side here is
// scripted frame-by-frame over a socketpair, so each failure mode is
// exact and deterministic.
#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "algorithms/registry.h"
#include "fl/round_host.h"
#include "fl/simulation.h"
#include "net/frame.h"
#include "net/net_host.h"
#include "net/pool.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "net/worker.h"
#include "../fl/sim_util.h"

namespace fedtrip {
namespace {

/// Scripted worker half of a handshake: answer hello + setup ack so the
/// pool construction succeeds, then hand the socket to `after` for the
/// dispatch phase.
void fake_worker_handshake(net::Socket& conn, std::uint64_t param_dim) {
  auto hello = net::recv_frame(conn, "coordinator");
  ASSERT_EQ(hello.type, wire::RecordType::kNetHello);
  net::send_frame(conn, wire::RecordType::kNetHello, 0,
                  net::serialize_hello(net::HelloMsg{net::kProtocolVersion,
                                                     net::kProtocolVersion}));
  auto setup = net::recv_frame(conn, "coordinator");
  ASSERT_EQ(setup.type, wire::RecordType::kNetSetup);
  net::send_frame(conn, wire::RecordType::kNetSetupAck, 0,
                  net::serialize_setup_ack(net::SetupAckMsg{param_dim}));
}

/// Runs a distributed tiny experiment against a scripted worker whose
/// dispatch-phase behaviour is `worker_dispatch_phase`; returns what the
/// coordinator threw (the run must throw, and must not hang).
std::string coordinator_failure_message(
    void (*worker_dispatch_phase)(net::Socket&)) {
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  const std::size_t dim = sim.param_dim();

  auto pair = net::make_socket_pair();
  std::thread worker([&conn = pair.b, dim, worker_dispatch_phase]() {
    fake_worker_handshake(conn, dim);
    worker_dispatch_phase(conn);
  });

  net::SetupMsg setup;
  setup.method = "FedTrip";
  setup.config = cfg;

  std::string message;
  try {
    std::vector<net::Socket> conns;
    conns.push_back(std::move(pair.a));
    auto pool = net::WorkerPool::handshake(std::move(conns), setup, dim);
    std::optional<net::NetHost> host;
    sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
      host.emplace(inner, pool);
      return *host;
    });
  } catch (const net::NetError& e) {
    message = e.what();
  }
  worker.join();
  EXPECT_FALSE(message.empty()) << "the run completed against a worker "
                                   "that never returned a result";
  return message;
}

TEST(WorkerFailureTest, WorkerDiesMidRoundFailsWithDiagnostic) {
  const std::string what = coordinator_failure_message(+[](net::Socket& c) {
    // Receive the first dispatch batch, then die without answering.
    (void)net::recv_frame(c, "coordinator");
    c.close();
  });
  EXPECT_NE(what.find("worker 1/1"), std::string::npos) << what;
}

TEST(WorkerFailureTest, WorkerDiesMidResultFrameFailsWithDiagnostic) {
  const std::string what = coordinator_failure_message(+[](net::Socket& c) {
    (void)net::recv_frame(c, "coordinator");
    // A result header promising bytes that never come.
    const auto header = net::encode_frame_header(
        wire::RecordType::kNetResult, 0, 4096);
    c.send_all(header.data(), header.size());
    c.close();
  });
  EXPECT_NE(what.find("mid-frame"), std::string::npos) << what;
}

TEST(WorkerFailureTest, WorkerErrorFrameSurfacesItsMessage) {
  const std::string what = coordinator_failure_message(+[](net::Socket& c) {
    (void)net::recv_frame(c, "coordinator");
    net::send_frame(c, wire::RecordType::kNetError, 0,
                    net::serialize_error("client 3 dataset missing"));
  });
  EXPECT_NE(what.find("client 3 dataset missing"), std::string::npos)
      << what;
}

TEST(WorkerFailureTest, MalformedResultPayloadRejectedAsNetError) {
  // A well-framed result whose payload bytes are garbage: the parse
  // failure must surface as NetError naming the worker (never an
  // uncaught WireError), per the transport-facing contract.
  const std::string what = coordinator_failure_message(+[](net::Socket& c) {
    (void)net::recv_frame(c, "coordinator");
    net::send_frame(c, wire::RecordType::kNetResult, 0, {0x01, 0x02, 0x03});
  });
  EXPECT_NE(what.find("malformed train result"), std::string::npos) << what;
  EXPECT_NE(what.find("worker 1/1"), std::string::npos) << what;
}

TEST(WorkerFailureTest, DesynchronisedBatchSequenceRejected) {
  const std::string what = coordinator_failure_message(+[](net::Socket& c) {
    auto f = net::recv_frame(c, "coordinator");
    auto batch = net::parse_dispatch_batch(f.payload.data(),
                                           f.payload.size());
    net::TrainResultMsg stale;
    stale.batch_seq = batch.batch_seq + 7;
    for (std::size_t i = 0; i < batch.dispatches.size(); ++i) {
      stale.updates.push_back(net::WireUpdate{});
    }
    net::send_frame(c, wire::RecordType::kNetResult, 0,
                    net::serialize_train_result(stale));
  });
  EXPECT_NE(what.find("desync"), std::string::npos) << what;
}

TEST(WorkerFailureTest, BadProtocolVersionRejectedByWorker) {
  // A real WorkerServer against a coordinator from the future: the worker
  // must answer with a typed error frame, and its serve() must throw.
  auto pair = net::make_socket_pair();
  std::string server_error;
  std::thread worker([&conn = pair.b, &server_error]() {
    try {
      net::WorkerServer server;
      server.serve(std::move(conn));
    } catch (const net::NetError& e) {
      server_error = e.what();
    }
  });
  net::send_frame(pair.a, wire::RecordType::kNetHello, 0,
                  net::serialize_hello(net::HelloMsg{99, 120}));
  auto reply = net::recv_frame(pair.a, "worker");
  worker.join();
  EXPECT_EQ(reply.type, wire::RecordType::kNetError);
  const std::string what =
      net::parse_error(reply.payload.data(), reply.payload.size());
  EXPECT_NE(what.find("bad protocol version"), std::string::npos) << what;
  EXPECT_NE(server_error.find("bad protocol version"), std::string::npos)
      << server_error;
}

TEST(WorkerFailureTest, ParamDimMismatchRejectedAtSetup) {
  // The scripted worker acks a different model size: the pool must refuse
  // before any training happens (config drift between processes).
  auto pair = net::make_socket_pair();
  std::thread worker([&conn = pair.b]() {
    auto hello = net::recv_frame(conn, "coordinator");
    ASSERT_EQ(hello.type, wire::RecordType::kNetHello);
    net::send_frame(
        conn, wire::RecordType::kNetHello, 0,
        net::serialize_hello(net::HelloMsg{net::kProtocolVersion,
                                           net::kProtocolVersion}));
    (void)net::recv_frame(conn, "coordinator");  // setup
    net::send_frame(conn, wire::RecordType::kNetSetupAck, 0,
                    net::serialize_setup_ack(net::SetupAckMsg{12345}));
    // The coordinator hangs up on mismatch; tolerate either a shutdown
    // frame or a plain close.
    try {
      (void)net::recv_frame(conn, "coordinator", /*eof_ok=*/true);
    } catch (const net::NetError&) {
    }
  });
  net::SetupMsg setup;
  setup.method = "FedTrip";
  setup.config = fl::testing::tiny_config();
  std::string what;
  try {
    std::vector<net::Socket> conns;
    conns.push_back(std::move(pair.a));
    (void)net::WorkerPool::handshake(std::move(conns), setup, 999);
  } catch (const net::NetError& e) {
    what = e.what();
  }
  worker.join();
  EXPECT_NE(what.find("config drift"), std::string::npos) << what;
}

TEST(WorkerFailureTest, RemoteUntrainableMethodRejectedByWorker) {
  // SCAFFOLD holds mutable per-client state on the train path; a worker
  // receiving it in Setup must refuse with the typed diagnostic.
  auto pair = net::make_socket_pair();
  std::thread worker([&conn = pair.b]() {
    try {
      net::WorkerServer server;
      server.serve(std::move(conn));
    } catch (const std::exception&) {
    }
  });
  net::send_frame(pair.a, wire::RecordType::kNetHello, 0,
                  net::serialize_hello(net::HelloMsg{}));
  auto hello = net::recv_frame(pair.a, "worker");
  ASSERT_EQ(hello.type, wire::RecordType::kNetHello);
  net::SetupMsg setup;
  setup.method = "SCAFFOLD";
  setup.config = fl::testing::tiny_config();
  net::send_frame(pair.a, wire::RecordType::kNetSetup, 0,
                  net::serialize_setup(setup));
  auto reply = net::recv_frame(pair.a, "worker");
  worker.join();
  ASSERT_EQ(reply.type, wire::RecordType::kNetError);
  const std::string what =
      net::parse_error(reply.payload.data(), reply.payload.size());
  EXPECT_NE(what.find("not remote-trainable"), std::string::npos) << what;
}

TEST(WorkerFailureTest, ModelThatDoesNotFitTheDataRejectedByWorker) {
  // The worker rebuilds its Simulation from Setup, which checks the
  // model's geometry and class count against the dataset.
  auto pair = net::make_socket_pair();
  std::thread worker([&conn = pair.b]() {
    try {
      net::WorkerServer server;
      server.serve(std::move(conn));
    } catch (const std::exception&) {
    }
  });
  net::send_frame(pair.a, wire::RecordType::kNetHello, 0,
                  net::serialize_hello(net::HelloMsg{}));
  auto hello = net::recv_frame(pair.a, "worker");
  ASSERT_EQ(hello.type, wire::RecordType::kNetHello);
  net::SetupMsg setup;
  setup.method = "FedAvg";
  setup.config = fl::testing::tiny_config();
  setup.config.dataset = "emnist";
  net::send_frame(pair.a, wire::RecordType::kNetSetup, 0,
                  net::serialize_setup(setup));
  auto reply = net::recv_frame(pair.a, "worker");
  worker.join();
  ASSERT_EQ(reply.type, wire::RecordType::kNetError);
  const std::string what =
      net::parse_error(reply.payload.data(), reply.payload.size());
  EXPECT_NE(what.find("with 47 classes"), std::string::npos) << what;
}

}  // namespace
}  // namespace fedtrip
