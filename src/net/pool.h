// WorkerPool: the coordinator's handle on its connected, set-up workers.
//
// Three ways to populate it, all ending in the same state (a handshaken,
// setup-acknowledged socket per worker, shard i of n):
//   * spawn_local  — fork/exec N `fl_worker --connect 127.0.0.1:<port>`
//                    children against a local listener (the
//                    run_experiment --workers-remote path);
//   * connect      — dial pre-started workers (`fl_worker --listen PORT`
//                    elsewhere; the run_experiment --connect path);
//   * handshake    — adopt already-connected sockets (the in-process
//                    equivalence tests drive WorkerServer threads over
//                    socketpair/loopback sockets).
//
// The handshake performs version negotiation (net/protocol.h), ships the
// Setup message with this worker's shard coordinates, and cross-checks
// the acknowledged param_dim against the coordinator's model — a config
// drift between processes fails the run at setup, not as silent numeric
// divergence mid-training.
//
// The pool is an append-only slot table: a slot is created per worker
// that ever joins, keeps its label, and is disconnected (socket closed,
// slot retained) when the host evicts the worker, so slot indices are
// stable for the life of the run. Setup's `elastic` flag picks the fleet
// mode (docs/TRANSPORT.md, "Worker fleets"). A fail-fast pool never
// grows. An elastic pool owns a loopback listener for the whole run: it
// is the dial-in point for spawn_local children *and* the rejoin door
// (its port ships in Setup as rejoin_port), and try_admit() handshakes a
// rejoiner into a fresh slot with the retained Setup.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "obs/export.h"

namespace fedtrip::net {

class WorkerPool {
 public:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  WorkerPool(WorkerPool&&) noexcept = default;
  WorkerPool& operator=(WorkerPool&&) noexcept = default;
  /// Best-effort shutdown() if the owner did not call it.
  ~WorkerPool();

  /// Adopts connected sockets and runs the handshake + setup on each
  /// (worker i of conns.size() in adoption order). `setup` carries
  /// everything but the shard coordinates (and, elastic, the rejoin
  /// port), which the pool fills; `expected_dim` is the coordinator
  /// model's |w| for the ack check.
  static WorkerPool handshake(std::vector<Socket> conns, SetupMsg setup,
                              std::size_t expected_dim);

  /// Spawns `n` local worker processes (fork/exec of `worker_bin`) that
  /// connect back to a loopback listener, then handshakes.
  static WorkerPool spawn_local(std::size_t n, const std::string& worker_bin,
                                SetupMsg setup, std::size_t expected_dim);

  /// Connects to pre-started workers at `endpoints`, then handshakes.
  static WorkerPool connect(const std::vector<Endpoint>& endpoints,
                            SetupMsg setup, std::size_t expected_dim);

  /// Slots ever created (disconnected ones included).
  std::size_t size() const { return conns_.size(); }
  Socket& worker(std::size_t i) { return conns_[i]; }
  /// Diagnostic label ("worker 1/2 (spawned)", "worker 4 (rejoined)").
  const std::string& label(std::size_t i) const { return labels_[i]; }
  bool connected(std::size_t i) const { return conns_[i].valid(); }
  /// Closes the slot's socket without a shutdown frame (eviction). The
  /// slot index stays valid and permanently disconnected.
  void disconnect(std::size_t i) { conns_[i].close(); }

  /// The fleet mode Setup shipped to every worker.
  bool elastic() const { return setup_.elastic; }

  /// The wire codec every session of this pool negotiated in Setup
  /// (protocol v5) — built from the same SetupMsg the workers parsed, so
  /// coordinator emit and worker parse can never disagree. Never null;
  /// inactive for the identity codec.
  const WireCodec* wire_codec() const { return wire_codec_.get(); }

  /// The rejoin door's port (shipped in Setup); 0 for a fail-fast pool.
  std::uint16_t rejoin_port() const {
    return listener_ ? listener_->port() : 0;
  }
  /// The rejoin door's fd for the host's poll set; -1 for a fail-fast
  /// pool.
  int listener_fd() const { return listener_ ? listener_->fd() : -1; }

  /// Accepts one pending rejoiner (`timeout_ms` 0 when the caller already
  /// knows the listener is readable) and handshakes it into a new slot;
  /// returns the slot index. kNoSlot for a fail-fast pool, when nothing
  /// was pending, or when the rejoiner failed its handshake (the socket is
  /// dropped and the run continues without it).
  std::size_t try_admit(int timeout_ms);

  /// Collects the accumulated stats of every connected worker
  /// (kNetStatsReq -> kNetStats, protocol v2), one lane per slot in slot
  /// order, named by the slot's label. Workers always answer (an empty
  /// report when tracing was off their side); interleaved heartbeats are
  /// skipped. A failing worker throws NetError with its label under a
  /// fail-fast pool; an elastic pool disconnects it and leaves its lane
  /// out — a stats request must never kill a run the elastic machinery
  /// would survive (the host evicts the slot at its next batch).
  std::vector<obs::TraceLane> collect_stats();

  /// Sends every connected worker an orderly shutdown, closes the sockets
  /// and the listener, and reaps spawned children. Safe to call twice.
  void shutdown();

 private:
  /// Builds the codec and, for an elastic pool, the listener whose port
  /// goes into the retained Setup.
  WorkerPool(SetupMsg setup, std::size_t expected_dim, std::size_t n);

  /// Handshakes `conn` into the next slot.
  void admit(Socket conn, std::string label);

  SetupMsg setup_;  // retained for rejoin handshakes (indices re-stamped)
  std::shared_ptr<const WireCodec> wire_codec_;
  std::size_t expected_dim_ = 0;
  std::uint32_t num_initial_ = 0;
  std::optional<Listener> listener_;  // elastic pools only
  std::vector<Socket> conns_;
  std::vector<std::string> labels_;
  std::vector<int> child_pids_;  // spawn_local only
  bool shut_down_ = false;
};

}  // namespace fedtrip::net
