#include "net/pool.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/frame.h"
#include "obs/stats.h"

namespace fedtrip::net {
namespace {

/// One worker's handshake: version negotiation, Setup with this worker's
/// shard coordinates filled in, and the param_dim cross-check against the
/// coordinator's model. Throws NetError with `label` in every diagnostic.
void run_worker_handshake(Socket& conn, const std::string& label,
                          SetupMsg setup, std::uint32_t index,
                          std::uint32_t num_workers,
                          std::size_t expected_dim) {
  send_frame(conn, wire::RecordType::kNetHello, 0,
             serialize_hello(HelloMsg{}));
  Frame reply = recv_frame(conn, label.c_str());
  if (reply.type == wire::RecordType::kNetError) {
    throw NetError(label + " rejected the handshake: " +
                   parse_error(reply.payload.data(), reply.payload.size()));
  }
  if (reply.type != wire::RecordType::kNetHello) {
    throw NetError(label + ": expected hello reply, got frame type " +
                   std::to_string(static_cast<std::uint32_t>(reply.type)));
  }
  HelloMsg theirs;
  try {
    theirs = parse_hello(reply.payload.data(), reply.payload.size());
  } catch (const wire::WireError& e) {
    throw NetError(label + " sent a malformed hello: " + e.what());
  }
  // The worker already chose from our offer; re-negotiating against its
  // (degenerate) range validates the choice is one we speak.
  (void)negotiate_version(HelloMsg{}, theirs);

  setup.worker_index = index;
  setup.num_workers = num_workers;
  send_frame(conn, wire::RecordType::kNetSetup, 0, serialize_setup(setup));
  Frame ack = recv_frame(conn, label.c_str());
  if (ack.type == wire::RecordType::kNetError) {
    throw NetError(label + " failed setup: " +
                   parse_error(ack.payload.data(), ack.payload.size()));
  }
  if (ack.type != wire::RecordType::kNetSetupAck) {
    throw NetError(label + ": expected setup ack, got frame type " +
                   std::to_string(static_cast<std::uint32_t>(ack.type)));
  }
  SetupAckMsg got;
  try {
    got = parse_setup_ack(ack.payload.data(), ack.payload.size());
  } catch (const wire::WireError& e) {
    throw NetError(label + " sent a malformed setup ack: " + e.what());
  }
  if (got.param_dim != expected_dim) {
    throw NetError(label + " built |w| = " + std::to_string(got.param_dim) +
                   ", coordinator has |w| = " +
                   std::to_string(expected_dim) +
                   " — the processes disagree on the model (config drift?)");
  }
}

void kill_and_reap(const std::vector<int>& pids) {
  for (int pid : pids) ::kill(pid, SIGKILL);
  for (int pid : pids) ::waitpid(pid, nullptr, 0);
}

struct SpawnedWorkers {
  std::vector<Socket> conns;
  std::vector<int> pids;
};

/// fork/exec `n` `fl_worker --connect` children dialing `listener` and
/// accept until all have connected (in accept order, which need not match
/// spawn order). A child that dies before dialing in — or a connect
/// timeout — kills and reaps the whole brood and throws NetError.
SpawnedWorkers spawn_and_accept(std::size_t n, const std::string& worker_bin,
                                Listener& listener) {
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(listener.port());

  std::vector<int> pids;
  pids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw NetError("fork failed: " + std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      // Child: become the worker binary. On exec failure exit hard — the
      // parent sees the missing connection and reports the path.
      ::execl(worker_bin.c_str(), worker_bin.c_str(), "--connect",
              endpoint.c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "exec %s failed: %s\n", worker_bin.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    pids.push_back(static_cast<int>(pid));
  }

  // Accept with a poll loop that watches the children: a worker that
  // dies before dialing in (exec failure, crash on startup) must fail the
  // spawn with a diagnostic, not block accept() forever.
  auto fail_spawn = [&](const std::string& why) -> NetError {
    kill_and_reap(pids);
    return NetError(why);
  };
  std::vector<Socket> conns;
  conns.reserve(n);
  constexpr int kSpawnTimeoutMs = 30000;
  int waited_ms = 0;
  while (conns.size() < n) {
    Socket conn = listener.accept_timeout(200);
    if (conn.valid()) {
      conns.push_back(std::move(conn));
      continue;
    }
    for (int pid : pids) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        throw fail_spawn(
            "spawned worker (pid " + std::to_string(pid) +
            ") exited before connecting — is " + worker_bin +
            " the fl_worker binary? (exit status " +
            std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1) +
            ")");
      }
    }
    waited_ms += 200;
    if (waited_ms >= kSpawnTimeoutMs) {
      throw fail_spawn("spawned workers did not connect within " +
                       std::to_string(kSpawnTimeoutMs / 1000) +
                       " s (binary: " + worker_bin + ")");
    }
  }
  return SpawnedWorkers{std::move(conns), std::move(pids)};
}

std::string initial_label(std::size_t i, std::size_t n) {
  return "worker " + std::to_string(i + 1) + "/" + std::to_string(n);
}

}  // namespace

WorkerPool::WorkerPool(SetupMsg setup, std::size_t expected_dim,
                       std::size_t n)
    : setup_(std::move(setup)),
      expected_dim_(expected_dim),
      num_initial_(static_cast<std::uint32_t>(n)) {
  if (n == 0) throw NetError("cannot build a worker pool of 0 workers");
  try {
    wire_codec_ = std::make_shared<const WireCodec>(
        setup_.config.net.wire_codec, setup_.config.comm.params,
        setup_.config.seed);
  } catch (const std::invalid_argument& e) {
    throw NetError(std::string("bad wire codec: ") + e.what());
  }
  if (setup_.elastic) {
    listener_.emplace(0);
    setup_.rejoin_port = listener_->port();
  }
}

WorkerPool::~WorkerPool() {
  try {
    shutdown();
  } catch (...) {
  }
}

void WorkerPool::admit(Socket conn, std::string label) {
  run_worker_handshake(conn, label, setup_,
                       static_cast<std::uint32_t>(conns_.size()),
                       num_initial_, expected_dim_);
  conns_.push_back(std::move(conn));
  labels_.push_back(std::move(label));
}

WorkerPool WorkerPool::handshake(std::vector<Socket> conns, SetupMsg setup,
                                 std::size_t expected_dim) {
  WorkerPool pool(std::move(setup), expected_dim, conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    pool.admit(std::move(conns[i]), initial_label(i, conns.size()));
  }
  return pool;
}

WorkerPool WorkerPool::spawn_local(std::size_t n,
                                   const std::string& worker_bin,
                                   SetupMsg setup, std::size_t expected_dim) {
  WorkerPool pool(std::move(setup), expected_dim, n);
  // An elastic pool's children dial its rejoin door, so a dropped child
  // can come straight back; a fail-fast pool's listener lives for the
  // spawn only.
  std::optional<Listener> spawn_door;
  Listener& door = pool.listener_ ? *pool.listener_ : spawn_door.emplace(0);
  SpawnedWorkers spawned = spawn_and_accept(n, worker_bin, door);
  try {
    // Connections arrive in accept order, which need not match spawn
    // order — so labels say "spawned", never a specific pid (the pids are
    // held for reaping only).
    for (std::size_t i = 0; i < n; ++i) {
      pool.admit(std::move(spawned.conns[i]),
                 initial_label(i, n) + " (spawned)");
    }
  } catch (...) {
    // A handshake/setup failure after connect: the children would
    // otherwise linger unkilled and unreaped.
    kill_and_reap(spawned.pids);
    throw;
  }
  pool.child_pids_ = std::move(spawned.pids);
  return pool;
}

WorkerPool WorkerPool::connect(const std::vector<Endpoint>& endpoints,
                               SetupMsg setup, std::size_t expected_dim) {
  WorkerPool pool(std::move(setup), expected_dim, endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    const Endpoint& ep = endpoints[i];
    pool.admit(connect_to(ep.host, ep.port),
               initial_label(i, endpoints.size()) + " (" + ep.host + ":" +
                   std::to_string(ep.port) + ")");
  }
  return pool;
}

std::size_t WorkerPool::try_admit(int timeout_ms) {
  if (!listener_) return kNoSlot;
  Socket conn = listener_->accept_timeout(timeout_ms);
  if (!conn.valid()) return kNoSlot;
  const std::size_t slot = conns_.size();
  try {
    admit(std::move(conn),
          "worker " + std::to_string(slot + 1) + " (rejoined)");
  } catch (const std::exception&) {
    // A rejoiner that cannot complete its handshake is dropped on the
    // floor; the run continues on the surviving fleet.
    return kNoSlot;
  }
  return slot;
}

std::vector<obs::TraceLane> WorkerPool::collect_stats() {
  std::vector<obs::TraceLane> lanes;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (!connected(i)) continue;
    const std::string& label = labels_[i];
    try {
      send_frame(conns_[i], wire::RecordType::kNetStatsReq, 0, {});
      Frame f = recv_frame(conns_[i], label.c_str());
      // An elastic worker's beacon thread may interleave heartbeats with
      // the report.
      while (f.type == wire::RecordType::kNetHeartbeat) {
        f = recv_frame(conns_[i], label.c_str());
      }
      if (f.type == wire::RecordType::kNetError) {
        throw NetError(label + " failed during stats collection: " +
                       parse_error(f.payload.data(), f.payload.size()));
      }
      if (f.type != wire::RecordType::kNetStats) {
        throw NetError(label + ": expected stats report, got frame type " +
                       std::to_string(static_cast<std::uint32_t>(f.type)));
      }
      try {
        lanes.push_back(
            {label, obs::parse_stats(f.payload.data(), f.payload.size())});
      } catch (const wire::WireError& e) {
        throw NetError(label + " sent a malformed stats report: " +
                       e.what());
      }
    } catch (const NetError&) {
      if (!elastic()) throw;
      disconnect(i);
    }
  }
  return lanes;
}

void WorkerPool::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (listener_) listener_->close();
  for (auto& conn : conns_) {
    if (!conn.valid()) continue;
    try {
      send_frame(conn, wire::RecordType::kNetShutdown, 0, {});
    } catch (...) {
      // A worker that already died still gets reaped below.
    }
    conn.close();
  }
  for (int pid : child_pids_) ::waitpid(pid, nullptr, 0);
  child_pids_.clear();
}

}  // namespace fedtrip::net
