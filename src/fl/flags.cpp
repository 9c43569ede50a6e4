#include "fl/flags.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace fedtrip::fl {

const std::vector<FlagSpec>& experiment_flags() {
  static const std::vector<FlagSpec> specs = {
      // Experiment grid.
      {"--method", "NAME",
       "FedTrip|FedAvg|FedProx|SlowMo|MOON|FedDyn|SCAFFOLD|FedDANE|"
       "FedAvgM|FedAdam (default FedTrip)"},
      {"--model", "ARCH", "mlp|cnn|alexnet (default cnn)"},
      {"--dataset", "NAME", "mnist|fmnist|emnist|cifar10 (default mnist)"},
      {"--het", "NAME", "IID|Dir-0.1|Dir-0.5|Orthogonal-5|Orthogonal-10"},
      {"--rounds", "N", "server rounds (default 30)"},
      {"--clients", "N", "total clients (default 10)"},
      {"--per-round", "N", "clients selected per round (default 4)"},
      {"--batch", "N", "local batch size (default 32)"},
      {"--epochs", "N", "local epochs per round (default 1)"},
      {"--mu", "X", "FedTrip/FedProx/FedDANE proximal weight"},
      {"--xi-scale", "X", "FedTrip xi scale"},
      {"--lr", "X", "client learning rate (default 0.01)"},
      {"--scale", "X", "dataset sample-count scale in (0,1] (default 0.1)"},
      {"--seed", "N", "root RNG seed (default 42)"},
      {"--width-mult", "X", "AlexNet width multiplier"},
      // Client data modes (docs/ARCHITECTURE.md, virtual shards).
      {"--client-data", "MODE",
       "pool|shard|virtual — pool partitions one generated dataset "
       "(default); shard synthesizes a per-client dataset from (seed, "
       "client id); virtual synthesizes the same shards at dispatch time "
       "and releases them after training (O(active) memory, bit-identical "
       "to shard)"},
      {"--shard-samples", "N",
       "shard/virtual: training samples per client shard (default: the "
       "dataset spec's per-client budget)"},
      {"--no-participation", nullptr,
       "skip the per-client participation tally (saves O(participants) "
       "memory at million-client scale; never changes training)"},
      {"--no-partition-stats", nullptr,
       "skip per-client label histograms in the result (saves O(clients x "
       "classes) memory; never changes training)"},
      // Output and data.
      {"--out", "FILE", "write per-round history CSV"},
      {"--save-model", "FILE", "write final global model checkpoint"},
      {"--load-model", "FILE",
       "resume from a checkpoint: load the initial global model"},
      {"--idx-dir", "DIR", "load real IDX-format data instead of synthetic"},
      // Communication pipeline.
      {"--compressor", "NAME",
       "uplink compressor: identity|topk|qsgd|qsgd8|qsgd4|randmask "
       "(\"ef+\" prefix adds error feedback, e.g. ef+topk)"},
      {"--down-compressor", "NAME", "downlink compressor (default identity)"},
      {"--topk-frac", "X", "topk: fraction of coordinates kept"},
      {"--qsgd-bits", "N", "qsgd: quantization bit width"},
      {"--mask-keep", "X", "randmask: fraction of coordinates kept"},
      {"--delta", nullptr,
       "compress the update delta w_k - w instead of w_k (uplink)"},
      {"--network", "P",
       "simulated network: none|uniform|heterogeneous|straggler"},
      {"--bandwidth", "X", "mean client bandwidth, Mbps"},
      {"--latency", "X", "mean one-way latency, ms"},
      // Round scheduling.
      {"--schedule", "P",
       "round scheduler: sync|fastk|async|deadline (default sync)"},
      {"--overselect", "M", "fastk: clients dispatched per round (default 2K)"},
      {"--buffer", "B", "async: arrivals per aggregation (default K)"},
      {"--staleness-alpha", "X",
       "async/deadline: weight stale updates by 1/(1+s)^X (default 0.5)"},
      {"--deadline", "T",
       "deadline: round cutoff in virtual seconds (default auto: 1.5x the "
       "median predicted client time)"},
      // Client heterogeneity.
      {"--compute-profile", "P",
       "client compute speed: none|uniform|lognormal|bimodal (default none)"},
      {"--seconds-per-sample", "X",
       "mean local-training seconds per sample per epoch (default 0.01)"},
      {"--availability", "A",
       "always|markov|<trace.csv> — per-client on/off windows consulted at "
       "dispatch (default always)"},
      {"--avail-on", "X", "markov availability: mean on-window seconds"},
      {"--avail-off", "X", "markov availability: mean off-window seconds"},
      // Distributed runner (docs/TRANSPORT.md).
      {"--workers-remote", "N",
       "distribute training across N spawned local worker processes "
       "(bit-identical to the in-process run)"},
      {"--connect", "LIST",
       "comma-separated host:port of pre-started fl_worker --listen "
       "processes to distribute training across"},
      {"--worker-bin", "PATH",
       "fl_worker binary for --workers-remote (default: next to this "
       "executable)"},
      {"--elastic", nullptr,
       "run the distributed pool as an elastic fleet: worker "
       "eviction + dispatch replay, work-stealing, mid-run rejoin "
       "(bit-identical results; requires --workers-remote or --connect)"},
      {"--heartbeat-interval", "X",
       "elastic: wall seconds between worker heartbeats (default 0.25)"},
      {"--worker-deadline", "X",
       "elastic: evict a worker silent for X wall seconds (default 10)"},
      {"--wire-codec", "NAME",
       "socket wire codec for dispatch/result traffic: identity|topk|"
       "qsgd|qsgd8|qsgd4|randmask (default identity). Verify-and-fallback: "
       "a vector ships encoded only when the receiver reconstructs it "
       "bit-exactly AND it is smaller, so results never change"},
      // Observability (docs/OBSERVABILITY.md).
      {"--obs", nullptr,
       "enable tracing + metrics collection (virtual/wall spans, counters); "
       "off by default and bit-transparent to results either way"},
      {"--trace-out", "FILE",
       "write a Chrome trace-event JSON (Perfetto-loadable; distributed "
       "runs merge worker stats into one trace). Implies --obs"},
      {"--metrics-out", "FILE",
       "write end-of-run counters/gauges/timers JSON, one lane per "
       "process. Implies --obs"},
      {"--metrics-interval", "X",
       "stream merged in-flight metrics as NDJSON every X wall seconds "
       "while the run is live (distributed runs poll every worker's "
       "stats lane mid-run; watch with fl_top). 0 emits at every poll "
       "point. Implies --obs; default file metrics.ndjson, see "
       "--metrics-ndjson"},
      {"--metrics-ndjson", "FILE",
       "path of the live metrics stream (implies --obs and, when "
       "--metrics-interval is unset, a 1s interval)"},
      {"--flight-recorder", "DIR",
       "arm the crash flight recorder: a bounded ring of recent "
       "spans/events dumps to DIR/flight-<pid>.json on a fatal error or "
       "signal. Implies --obs; spawn workers with their own "
       "--flight-recorder to cover worker crashes"},
      // Meta.
      {"--help", nullptr, "print this help and exit"},
  };
  return specs;
}

const std::vector<FlagSpec>& worker_flags() {
  static const std::vector<FlagSpec> specs = {
      // Connection mode (exactly one of the two).
      {"--connect", "HOST:PORT",
       "dial a waiting coordinator (what spawned workers do)"},
      {"--listen", "PORT",
       "wait for coordinators to dial in (pre-started mode; PORT 0 picks "
       "an ephemeral port and prints it)"},
      // Serve loop.
      {"--max-sessions", "N",
       "--listen: exit after serving N sessions (default 0 = unbounded; "
       "the worker survives across runs)"},
      // Deterministic fault injection (net/elastic/chaos.h). Thresholds
      // count cumulative executed dispatches across sessions.
      {"--chaos-kill-after", "N",
       "crash (close without result, exit 1) after executing N dispatches"},
      {"--chaos-drop-after", "N",
       "drop the connection once after executing N dispatches, then "
       "rejoin the coordinator's listener (elastic sessions)"},
      {"--chaos-delay-ms", "X",
       "sleep X wall ms before each dispatch batch (a deterministic "
       "straggler; forces work-stealing)"},
      // Crash forensics (obs/flight.h).
      {"--flight-recorder", "DIR",
       "arm the crash flight recorder: recent spans/events dump to "
       "DIR/flight-<pid>.json — naming the in-flight dispatch — on a "
       "chaos kill, fatal error or signal"},
      // Meta.
      {"--help", nullptr, "print this help and exit"},
  };
  return specs;
}

namespace {

std::string render_usage(const char* title,
                         const std::vector<FlagSpec>& specs) {
  std::size_t width = 0;
  for (const auto& s : specs) {
    std::size_t w = std::strlen(s.name);
    if (s.value_name != nullptr) w += 1 + std::strlen(s.value_name);
    width = std::max(width, w);
  }
  std::ostringstream out;
  out << title << " options:\n";
  for (const auto& s : specs) {
    std::string head = s.name;
    if (s.value_name != nullptr) {
      head += ' ';
      head += s.value_name;
    }
    out << "  " << head << std::string(width - head.size() + 2, ' ')
        << s.help << '\n';
  }
  return out.str();
}

}  // namespace

std::string experiment_usage() {
  return render_usage("run_experiment", experiment_flags());
}

std::string worker_usage() {
  return render_usage("fl_worker", worker_flags());
}

std::uint64_t parse_count(const char* text, std::uint64_t max) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  // from_chars takes no '+' or blanks; the digit check also rejects '-'.
  const auto [ptr, ec] =
      std::isdigit(static_cast<unsigned char>(*text))
          ? std::from_chars(text, end, value)
          : std::from_chars_result{text, std::errc::invalid_argument};
  if (ec == std::errc() && ptr == end && value <= max) return value;
  const std::string bound =
      max < std::numeric_limits<std::uint64_t>::max()
          ? " up to " + std::to_string(max)
          : std::string();
  throw std::invalid_argument("expected a whole number" + bound +
                              ", got '" + text + "'");
}

double parse_number(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text)) ||
      *end != '\0' || !std::isfinite(value)) {
    throw std::invalid_argument(std::string("expected a number, got '") +
                                text + "'");
  }
  return value;
}

}  // namespace fedtrip::fl
