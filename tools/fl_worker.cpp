// fl_worker: the worker-process binary of the distributed runner.
//
// Executes training for the dispatch batches a coordinator
// (run_experiment --workers-remote / --connect, with or without
// --elastic) sends it over the socket protocol (docs/TRANSPORT.md). The
// entire experiment definition arrives over the wire in the Setup
// message, so the worker takes no experiment flags — only where to find
// its coordinator, how long to keep serving, and which deterministic
// faults to inject (the chaos suite's knobs; net/elastic/chaos.h). The
// flag surface is registered in fl::worker_flags(), which renders --help.
//
// Session loop:
//   --connect  dial the coordinator, serve. On an orderly shutdown the
//              run is over: exit 0.
//   --listen   accept coordinators one session at a time until
//              --max-sessions (default unbounded), so one pre-started
//              worker survives across many runs.
// Either way, a session that ends in an injected connection drop redials
// the coordinator's rejoin door (Setup's rejoin_port) and serves on —
// that is the mid-run rejoin path of the elastic coordinator. An injected
// crash exits 1 immediately, result unsent, exactly like a real death.
#include <time.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "fl/flags.h"
#include "net/elastic/chaos.h"
#include "net/socket.h"
#include "net/worker.h"
#include "obs/flight.h"

namespace {

/// Serves sessions on one dialed-out connection until the run ends:
/// chaos drops redial the rejoin door. Returns the process exit code.
int serve_dialed(fedtrip::net::WorkerServer& server,
                 fedtrip::net::Socket conn) {
  using namespace fedtrip;
  while (true) {
    const net::SessionEnd end = server.serve(std::move(conn));
    switch (end) {
      case net::SessionEnd::kShutdown:
        return 0;
      case net::SessionEnd::kChaosKilled:
        return 1;
      case net::SessionEnd::kChaosDropped:
        break;  // rejoin below
    }
    if (server.rejoin_host().empty() || server.rejoin_port() == 0) {
      std::fprintf(stderr,
                   "fl_worker: connection dropped and the session offered "
                   "no rejoin\n");
      return 1;
    }
    // A freshly-dropped connection may beat the coordinator's accept loop;
    // a few spaced retries cover the race.
    net::Socket redial;
    for (int attempt = 0; attempt < 50 && !redial.valid(); ++attempt) {
      try {
        redial = net::connect_to(server.rejoin_host(), server.rejoin_port());
      } catch (const net::NetError&) {
        struct timespec ts = {0, 100 * 1000 * 1000};  // 100 ms
        ::nanosleep(&ts, nullptr);
      }
    }
    if (!redial.valid()) {
      std::fprintf(stderr, "fl_worker: could not rejoin %s:%u\n",
                   server.rejoin_host().c_str(), server.rejoin_port());
      return 1;
    }
    std::fprintf(stderr, "fl_worker: rejoined %s:%u\n",
                 server.rejoin_host().c_str(), server.rejoin_port());
    conn = std::move(redial);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedtrip;

  std::string connect_spec;
  std::optional<std::uint16_t> listen_port;
  std::size_t max_sessions = 0;  // 0 = unbounded
  net::ChaosConfig chaos;
  std::string flight_dir;
  const std::string usage = fl::worker_usage();

  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s", flag,
                     usage.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (!std::strcmp(flag, "--connect")) {
        connect_spec = value();
      } else if (!std::strcmp(flag, "--listen")) {
        listen_port = fl::parse_flag<std::uint16_t>(value());
      } else if (!std::strcmp(flag, "--max-sessions")) {
        max_sessions = fl::parse_flag<std::size_t>(value());
      } else if (!std::strcmp(flag, "--chaos-kill-after")) {
        chaos.kill_after_dispatches = fl::parse_flag<std::size_t>(value());
      } else if (!std::strcmp(flag, "--chaos-drop-after")) {
        chaos.drop_after_dispatches = fl::parse_flag<std::size_t>(value());
      } else if (!std::strcmp(flag, "--chaos-delay-ms")) {
        chaos.delay_dispatch_ms = fl::parse_flag<double>(value());
      } else if (!std::strcmp(flag, "--flight-recorder")) {
        flight_dir = value();
      } else if (!std::strcmp(flag, "--help")) {
        std::printf("%s", usage.c_str());
        return 0;
      } else {
        std::fprintf(stderr, "unknown option %s\n%s", flag, usage.c_str());
        return 2;
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", flag, e.what());
      return 2;
    }
  }
  if (connect_spec.empty() == !listen_port.has_value()) {
    std::fprintf(stderr,
                 "exactly one of --connect HOST:PORT or --listen PORT is "
                 "required\n%s",
                 usage.c_str());
    return 2;
  }
  if (chaos.any()) {
    std::fprintf(stderr,
                 "fl_worker: chaos armed (kill-after=%zu drop-after=%zu "
                 "delay-ms=%.1f)\n",
                 chaos.kill_after_dispatches, chaos.drop_after_dispatches,
                 chaos.delay_dispatch_ms);
  }

  net::WorkerServer server(stderr, chaos);
  // Crash flight recorder: session tracers feed the ring; a chaos kill,
  // fatal session error or signal dumps flight-<pid>.json into the dir.
  obs::FlightRecorder flight;
  if (!flight_dir.empty()) {
    server.set_flight_recorder(&flight, flight_dir);
    obs::FlightRecorder::arm_process(&flight, flight_dir, nullptr);
    std::fprintf(stderr, "fl_worker: flight recorder armed (%s)\n",
                 flight_dir.c_str());
  }
  if (!connect_spec.empty()) {
    try {
      const net::Endpoint ep = net::parse_endpoint(connect_spec);
      net::Socket conn = net::connect_to(ep.host, ep.port);
      std::fprintf(stderr, "fl_worker: connected to %s\n",
                   connect_spec.c_str());
      return serve_dialed(server, std::move(conn));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fl_worker: %s\n", e.what());
      return 1;
    }
  }

  // Pre-started mode: one listener, sessions served back to back. A
  // session that fails (the coordinator died, a protocol violation) is
  // logged and the worker goes back to accepting — a long-lived worker
  // must not be killable by one bad peer.
  try {
    net::Listener listener(*listen_port);
    std::fprintf(stderr, "fl_worker: listening on 127.0.0.1:%u\n",
                 listener.port());
    std::size_t served = 0;
    while (max_sessions == 0 || served < max_sessions) {
      net::Socket conn = listener.accept();
      std::fprintf(stderr, "fl_worker: coordinator connected\n");
      ++served;
      try {
        const int rc = serve_dialed(server, std::move(conn));
        if (rc != 0) return rc;  // chaos kill: die for real
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fl_worker: session failed: %s\n", e.what());
      }
    }
    std::fprintf(stderr, "fl_worker: served %zu session(s), exiting\n",
                 served);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fl_worker: %s\n", e.what());
    return 1;
  }
  return 0;
}
