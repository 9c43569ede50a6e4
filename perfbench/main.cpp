// perfbench: the repository benchmark.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   perfbench --workload NAME [--seed N] --self-test
//
// Runs trials of one workload (construct, run the round loop, check the
// outputs) until --seconds have passed and the run holds enough rounds for
// its tail percentile, then prints a table and, as its last line, one JSON
// object {correct, attempted, failed, metrics}. Untraced runs report the
// end-to-end metrics; --trace 1 reports the per-layer ones, each Host call
// timed, plus an untraced rerun of the first trial (tracing overhead,
// traced == untraced) and, over sockets, an in-process replay (transport
// overhead, socket == in-process). --self-test checks the benchmark
// itself: it sleeps inside every aggregate call, which must raise
// round_s_p50 and land on the fl.aggregate_s row of a traced trial.
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "proc.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--self-test]\n"
               "workloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Metric values in output order, with their units.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// A failed trial can leave a sample empty; its metric then reads 0 in the
/// JSON of a run that is already marked incorrect.
double median_or_nan(const std::vector<double>& v) {
  return v.empty() ? NAN : median(v);
}

/// Highest acceptable wall for the trial loop: the whole run must end
/// within three minutes, replay trials included.
constexpr double kMaxLoopSeconds = 120.0;
constexpr std::size_t kMinTrials = 3;
constexpr std::size_t kWarmupRounds = 3;
constexpr std::size_t kSetupProbes = 12;
constexpr double kTailP = 0.90;

/// The red-path self-test delays every aggregate call, which every
/// workload makes once a round, by 200 ms.
constexpr Call kSelfTestCall = Call::kAggregate;
constexpr double kSelfTestDelayS = 0.2;

/// The red-path self-test. Interleaves plain and delayed trials of one
/// seed for the round medians, then compares one traced trial of each:
/// the delayed call's row must absorb the injected time, and the rest of
/// the table must not.
int self_test(const Workload& w, std::uint64_t seed) {
  const Call call = kSelfTestCall;
  const double delay_s = kSelfTestDelayS;
  TrialOptions plain, delayed;
  delayed.delay_call = call;
  delayed.delay_s = delay_s;
  std::vector<double> plain_rounds, delayed_rounds;
  std::vector<std::string> failures;
  const auto keep = [&](const Trial& t, std::vector<double>& rounds) {
    rounds.insert(rounds.end(), t.round_s.begin(), t.round_s.end());
    for (const auto& f : t.failures) failures.push_back(f);
  };
  for (int k = 0; k < 2; ++k) {
    keep(run_trial(w, seed, plain), plain_rounds);
    keep(run_trial(w, seed, delayed), delayed_rounds);
  }
  plain.traced = delayed.traced = true;
  const Trial tp = run_trial(w, seed, plain);
  const Trial td = run_trial(w, seed, delayed);
  keep(tp, plain_rounds);
  keep(td, delayed_rounds);
  if (!failures.empty()) {
    for (const auto& f : failures) std::printf("FAIL %s\n", f.c_str());
    return 1;
  }
  const std::size_t c = static_cast<std::size_t>(call);
  const std::size_t calls = td.times[c].durations.size();
  const double injected = delay_s * static_cast<double>(calls);
  const double per_round = injected / static_cast<double>(td.round_s.size());
  const double p50_rise = median(delayed_rounds) - median(plain_rounds);
  const double row_rise = td.times[c].total_s - tp.times[c].total_s;
  double other_rise = (td.loop_s - td.times[c].total_s) -
                      (tp.loop_s - tp.times[c].total_s);
  const bool p50_ok = p50_rise >= 0.5 * per_round;
  // The other rows move with the host between two trials; they must not
  // have absorbed the delay (half of it would mean double counting).
  const bool row_ok = std::fabs(row_rise - injected) <= 0.2 * injected &&
                      std::fabs(other_rise) <= 0.5 * injected;
  std::printf("self-test %s: %.0f ms in every %s (%zu calls, %.4f s per "
              "round)\n",
              w.name.c_str(), 1e3 * delay_s, layer_name(call), calls,
              per_round);
  std::printf("  round_s_p50 %.4f -> %.4f s (+%.4f): %s\n",
              median(plain_rounds), median(delayed_rounds), p50_rise,
              p50_ok ? "worse, as it must be" : "FAIL: did not get worse");
  std::printf("  %s row +%.4f s for %.4f s injected; every other row "
              "together %+.4f s: %s\n",
              layer_name(call), row_rise, injected, other_rise,
              row_ok ? "charged to the right row" : "FAIL: misattributed");
  for (std::size_t r = 0; r < kNumCalls; ++r) {
    std::printf("    %-18s %9.4f -> %9.4f s\n", layer_name(static_cast<Call>(r)),
                tp.times[r].total_s, td.times[r].total_s);
  }
  return p50_ok && row_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Workload w;
  try {
    w = make_workload(a.workload);
  } catch (const std::exception& e) {
    usage(e.what());
  }

  if (a.self_test) return self_test(w, a.seed);

  const double ref_loop0 = reference_loop_s();
  const double steal0 = host_steal_s();
  const double cpu0 = process_cpu_s();
  const auto run_start = Clock::now();
  const std::size_t min_rounds = samples_for_tail(kTailP);

  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  auto absorb = [&](const Trial& t, const char* label) {
    attempted += t.counts.dispatches;
    for (const auto& f : t.failures) {
      failures.push_back(std::string(label) + " seed " +
                         std::to_string(t.seed) + ": " + f);
    }
  };

  // A short warm-up trial, unmeasured: the first trial in a process pays
  // one-off costs (heap growth, first page faults) the later ones do not.
  TrialOptions warm_opt;
  warm_opt.rounds = kWarmupRounds;
  absorb(run_trial(w, w.reference_seed, warm_opt), "warm-up");

  // Trials alternate between the reference experiment, which
  // time-to-target is measured on, and trials seeded from --seed.
  // Right after a traced run's first trial, while the host is in the same
  // state: an untraced rerun (tracing overhead; tracing must not change a
  // bit) and, for socket workloads, an in-process replay (transport
  // overhead; the transport must not change a bit). Both compare per-call
  // medians, which a burst of host load moves least. In-process workloads
  // have no transport to replay: their transport overhead is zero.
  double trace_overhead = 0.0, rpc_overhead_s = 0.0;
  auto traced_extras = [&](const Trial& first) {
    const Trial rerun = run_trial(w, first.seed, {});
    absorb(rerun, "untraced rerun");
    if (rerun.failures.empty()) {
      trace_overhead = median(first.round_s) / median(rerun.round_s) - 1.0;
      if (rerun.final_params != first.final_params) {
        failures.push_back("traced and untraced final params differ");
      }
    }
    if (w.socket_workers == 0) return;
    TrialOptions replay_opt;
    replay_opt.traced = true;
    replay_opt.in_process = true;
    const Trial replay = run_trial(w, first.seed, replay_opt);
    absorb(replay, "in-process replay");
    if (replay.failures.empty()) {
      const auto& train = first.times[static_cast<std::size_t>(Call::kTrain)];
      const auto& local = replay.times[static_cast<std::size_t>(Call::kTrain)];
      rpc_overhead_s = (median(train.durations) - median(local.durations)) *
                       static_cast<double>(train.durations.size());
      if (replay.final_params != first.final_params) {
        failures.push_back("in-process replay final params differ");
      }
    }
  };

  std::vector<Trial> trials;
  std::vector<double> probe_setup_s;
  std::size_t rounds = 0;
  for (std::size_t i = 0; failures.empty(); ++i) {
    TrialOptions opt;
    opt.traced = a.trace;
    opt.direct_calls = a.trace && i == 0;
    const std::uint64_t seed =
        i % 2 == 0 ? w.reference_seed : trial_seed(a.seed, i / 2);
    trials.push_back(run_trial(w, seed, opt));
    absorb(trials.back(), "trial");
    rounds += trials.back().round_s.size();
    if (a.trace && i == 0 && failures.empty()) traced_extras(trials.front());
    // Set-ups are short and noisy: probe a few more between trials.
    TrialOptions probe_opt;
    probe_opt.setup_only = true;
    for (int k = 0; k < 2 && !a.trace && probe_setup_s.size() < kSetupProbes;
         ++k) {
      const Trial p = run_trial(w, seed, probe_opt);
      absorb(p, "set-up probe");
      probe_setup_s.push_back(p.setup_s);
    }
    const double elapsed = seconds(run_start, Clock::now());
    if (elapsed >= kMaxLoopSeconds) break;
    if (elapsed >= a.seconds && rounds >= min_rounds &&
        trials.size() >= kMinTrials) {
      break;
    }
  }
  if (rounds < min_rounds) {
    failures.push_back("only " + std::to_string(rounds) + " rounds, " +
                       std::to_string(min_rounds) + " needed for p90");
  }
  if (trials.empty()) {
    for (const auto& f : failures) std::printf("  FAIL %s\n", f.c_str());
    print_json(false, std::max<std::uint64_t>(attempted, 1),
               std::max<std::uint64_t>(attempted, 1), {});
    return 1;
  }

  const Trial& first = trials.front();
  std::vector<double> round_s, setup_s = probe_setup_s, construct_s, connect_s,
      to_target, samples_per_s, peak_rss;
  double loop_s = 0.0;
  std::uint64_t dispatches = 0, wire_bytes = 0;
  for (const Trial& t : trials) {
    round_s.insert(round_s.end(), t.round_s.begin(), t.round_s.end());
    setup_s.push_back(t.setup_s);
    construct_s.push_back(t.construct_s);
    connect_s.push_back(t.connect_s);
    if (t.seed == w.reference_seed && t.time_to_target_s) {
      to_target.push_back(*t.time_to_target_s);
    }
    loop_s += t.loop_s;
    samples_per_s.push_back(static_cast<double>(t.counts.samples) / t.loop_s);
    peak_rss.push_back(t.peak_rss_mb);
    dispatches += t.counts.dispatches;
    wire_bytes += w.socket_workers > 0
                      ? t.net.down_wire_bytes + t.net.up_wire_bytes
                      : t.comm_down_bytes + t.comm_up_bytes;
  }

  const double steal_s = host_steal_s() - steal0;
  const double cpu_s = process_cpu_s() - cpu0;
  const double wall_s = seconds(run_start, Clock::now());
  const double ref_loop1 = reference_loop_s();
  const bool correct = failures.empty();
  const std::uint64_t attempted_out = std::max<std::uint64_t>(attempted, 1);
  const std::uint64_t failed = correct ? 0 : attempted_out;

  std::printf("perfbench %s seed %llu: %zu trials, %zu rounds, %llu "
              "dispatches (%llu failed, ratio %.3f), wall %.2f s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              trials.size(), rounds,
              static_cast<unsigned long long>(attempted_out),
              static_cast<unsigned long long>(failed),
              failed_ratio(attempted_out, failed), wall_s);
  std::printf("noise: host steal %.3f s, process cpu %.3f s over %.3f s "
              "wall; reference loop %.1f ms before, %.1f ms after\n",
              steal_s, cpu_s, wall_s, 1e3 * ref_loop0, 1e3 * ref_loop1);
  for (const Trial& t : trials) {
    std::printf("  trial seed %-20llu %4zu rounds in %7.3f s, target %s "
                "at round %zu, final loss %.4f accuracy %.4f\n",
                static_cast<unsigned long long>(t.seed), t.round_s.size(),
                t.loop_s, t.time_to_target_s ? "reached" : "not reached",
                t.rounds_to_target, t.final_loss, t.final_accuracy);
  }
  std::printf("output check: %s\n", correct ? "PASS" : "FAIL");
  for (const auto& f : failures) std::printf("  FAIL %s\n", f.c_str());

  std::vector<Metric> metrics;
  if (!a.trace) {
    const auto p90 = blocked_tail_percentile(round_s, kTailP);
    metrics = {
        {"setup_s", median_or_nan(setup_s), "s"},
        {"round_s_p50", median_or_nan(round_s), "s"},
        {"round_s_p90", p90.value_or(NAN), "s"},
        {"samples_per_s", median_or_nan(samples_per_s), "1/s"},
        {"time_to_target_s", median_or_nan(to_target), "s"},
        {"peak_rss_mb", median_or_nan(peak_rss), "MB"},
        {"wire_bytes_per_dispatch",
         static_cast<double>(wire_bytes) / static_cast<double>(dispatches),
         "B"},
    };
    std::printf("%-26s %16s %-6s\n", "metric", "value", "unit");
    for (const auto& m : metrics) {
      std::printf("%-26s %16.6g %-6s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("(%zu round samples; p90 is the median over %zu blocks of "
                "%zu or more rounds, each with ten beyond its p90; "
                "%zu set-ups; %zu trials)\n",
                round_s.size(), round_s.size() / min_rounds, min_rounds,
                setup_s.size(), trials.size());
  } else {
    LayerTable table;
    table.loop_s = loop_s;
    std::array<CallTimes, kNumCalls> calls;
    double train_cpu_s = 0.0;
    for (const Trial& t : trials) {
      for (std::size_t c = 0; c < kNumCalls; ++c) {
        calls[c].total_s += t.times[c].total_s;
        calls[c].durations.insert(calls[c].durations.end(),
                                  t.times[c].durations.begin(),
                                  t.times[c].durations.end());
      }
      train_cpu_s += t.train_cpu_s;
    }
    for (std::size_t c = 0; c < kNumCalls; ++c) {
      LayerTime row;
      row.name = layer_name(static_cast<Call>(c));
      row.total_s = calls[c].total_s;
      row.calls = calls[c].durations.size();
      row.p50_s = row.calls > 0 ? median(calls[c].durations) : 0.0;
      table.rows.push_back(row);
    }
    const auto row_of = [&](Call c) -> const LayerTime& {
      return table.rows[static_cast<std::size_t>(c)];
    };
    const double train_wall = row_of(Call::kTrain).total_s;
    const double train_cpu_util =
        train_wall > 0.0 ? train_cpu_s / (train_wall * w.training_threads)
                         : 0.0;
    // Direct calls on trial 0, scaled to the loop's call counts.
    std::size_t eval_rounds = 0;
    for (const Trial& t : trials) {
      const std::size_t r = t.round_s.size();
      eval_rounds += std::min(r, r / w.cfg.eval_every + 1);
    }
    const double eval_p50 = first.evaluate_s.empty() ? 0.0
                                                     : median(first.evaluate_s);
    // Pool-mode clients are never synthesized: no calls, no time.
    const std::size_t shard_calls = first.make_shard_s.empty() ? 0 : dispatches;
    const double shard_p50 =
        first.make_shard_s.empty() ? 0.0 : median(first.make_shard_s);
    const double evaluate_s = eval_p50 * static_cast<double>(eval_rounds);
    const double make_shard_s = shard_p50 * static_cast<double>(shard_calls);

    std::printf("%-22s %11s %8s %9s %12s\n", "layer", "total s", "share",
                "calls", "p50 ms");
    const auto line = [&](const char* name, double total, double share,
                          std::size_t n, double p50) {
      std::printf("%-22s %11.4f %7.1f%% %9zu %12.4f\n", name, total,
                  100.0 * share, n, 1e3 * p50);
    };
    for (const auto& r : table.rows) {
      line(r.name.c_str(), r.total_s, table.share(r), r.calls, r.p50_s);
    }
    line("sched.self_s", table.self_s(), table.self_s() / loop_s, rounds,
         0.0);
    line("loop wall", loop_s, 1.0, rounds, 0.0);
    std::printf("inside the rows above:\n");
    line("  fl.evaluate_s", evaluate_s, evaluate_s / loop_s, eval_rounds,
         eval_p50);
    line("  clients.make_shard_s", make_shard_s, make_shard_s / loop_s,
         shard_calls, shard_p50);
    const std::size_t trial0_trains =
        w.socket_workers == 0
            ? 0
            : first.times[static_cast<std::size_t>(Call::kTrain)]
                  .durations.size();
    line("  net.rpc_overhead_s", rpc_overhead_s, rpc_overhead_s / first.loop_s,
         trial0_trains,
         rpc_overhead_s / static_cast<double>(std::max<std::size_t>(
                              trial0_trains, 1)));
    std::printf("  (net.rpc_overhead_s: trial 0's train() against an "
                "in-process replay, share of trial 0's loop%s)\n",
                w.socket_workers > 0 ? "" : "; no transport here");
    std::printf("set-up, per trial (median of %zu): fl.construct_s %.4f, "
                "net.connect_s %.4f, mem.setup_rss_mb %.1f\n",
                trials.size(), median_or_nan(construct_s), median_or_nan(connect_s),
                first.setup_rss_mb);
    std::printf("fl.train_cpu_util %.3f over %zu training threads; tracing "
                "overhead %+.2f%% on trial 0's median round against an "
                "untraced rerun\n",
                train_cpu_util, w.training_threads, 100.0 * trace_overhead);

    metrics = {
        {"fl.construct_s", median_or_nan(construct_s), "s"},
        {"net.connect_s", median_or_nan(connect_s), "s"},
        {"fl.train_s", row_of(Call::kTrain).total_s, "s"},
        {"fl.train_share", table.share(row_of(Call::kTrain)), "ratio"},
        {"fl.train_cpu_util", train_cpu_util, "ratio"},
        {"fl.aggregate_s", row_of(Call::kAggregate).total_s, "s"},
        {"fl.aggregate_share", table.share(row_of(Call::kAggregate)), "ratio"},
        {"fl.evaluate_s", evaluate_s, "s"},
        {"fl.select_s", row_of(Call::kSelect).total_s, "s"},
        {"fl.select_share", table.share(row_of(Call::kSelect)), "ratio"},
        {"sched.self_s", table.self_s(), "s"},
        {"sched.self_share", table.self_s() / loop_s, "ratio"},
        {"comm.broadcast_s", row_of(Call::kBroadcast).total_s, "s"},
        {"comm.uplink_s", row_of(Call::kUplink).total_s, "s"},
        {"net.rpc_overhead_s", rpc_overhead_s, "s"},
        {"net.rpc_overhead_share", rpc_overhead_s / first.loop_s, "ratio"},
        {"clients.make_shard_s", make_shard_s, "s"},
        {"mem.setup_rss_mb", first.setup_rss_mb, "MB"},
        {"trace.overhead", trace_overhead, "ratio"},
        {"sched.rounds", static_cast<double>(first.counts.rounds), "count"},
        {"sched.dispatches", static_cast<double>(first.counts.dispatches),
         "count"},
        {"sched.unavailable", static_cast<double>(first.counts.unavailable),
         "count"},
        {"fl.samples", static_cast<double>(first.counts.samples), "count"},
        {"comm.down_bytes", static_cast<double>(first.comm_down_bytes), "B"},
        {"comm.up_bytes", static_cast<double>(first.comm_up_bytes), "B"},
        {"net.frames", static_cast<double>(first.net.frames), "count"},
        {"net.down_raw_bytes", static_cast<double>(first.net.down_raw_bytes),
         "B"},
        {"net.down_wire_bytes",
         static_cast<double>(first.net.down_wire_bytes), "B"},
        {"net.up_raw_bytes", static_cast<double>(first.net.up_raw_bytes), "B"},
        {"net.up_wire_bytes", static_cast<double>(first.net.up_wire_bytes),
         "B"},
        {"net.encoded_vecs", static_cast<double>(first.net.encoded_vecs),
         "count"},
    };
  }
  print_json(correct, attempted_out, failed, metrics);
  return correct ? 0 : 1;
}
