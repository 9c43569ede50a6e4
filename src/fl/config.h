// ExperimentConfig: one FL run's full parameterisation.
//
// Defaults mirror the paper's default setting (§V-A): 100 rounds, batch 50,
// 1 local epoch, 4 of 10 clients per round, SGDm lr 0.01 momentum 0.9.
#pragma once

#include <cstdint>
#include <string>

#include "clients/config.h"
#include "comm/config.h"
#include "data/partition.h"
#include "net/config.h"
#include "nn/models.h"
#include "obs/config.h"
#include "sched/config.h"

namespace fedtrip::fl {

struct ExperimentConfig {
  nn::ModelSpec model;
  /// Synthetic dataset analogue: "mnist" | "fmnist" | "emnist" | "cifar10".
  std::string dataset = "mnist";
  /// Sample-count scale in (0, 1]; 1.0 = Table II counts.
  double data_scale = 1.0;
  data::Heterogeneity heterogeneity = data::Heterogeneity::kDir05;

  /// Where client training data lives (docs/ARCHITECTURE.md, "Client data
  /// modes"); models are the engine's workspaces in every mode.
  ///   "pool"    legacy default — one shared synthetic pool split by the
  ///             configured partitioner into per-client loaders;
  ///   "shard"   per-client shards synthesized from (seed, client_id), all
  ///             materialized at construction — the reference the
  ///             equivalence tests compare against;
  ///   "virtual" the same shards, synthesized inside each train_shard task
  ///             on the thread that trains it and released with the task —
  ///             O(active) memory, bit-identical to "shard" (requires a
  ///             remote-trainable algorithm, since the engine keeps no
  ///             per-client algorithm state for it).
  std::string client_data = "pool";
  /// Shard modes: samples per client (0 = the dataset spec's Table II
  /// per-client count scaled by data_scale).
  std::size_t shard_samples = 0;
  /// Record per-client participation counts in RunResult (sparse; opt out
  /// when even the map is unwanted bookkeeping at millions of clients).
  bool track_participation = true;
  /// Compute RunResult::partition_histograms — O(clients x classes) memory,
  /// opt out at large scale.
  bool partition_stats = true;

  std::size_t num_clients = 10;
  std::size_t clients_per_round = 4;
  std::size_t rounds = 100;
  std::size_t local_epochs = 1;
  std::size_t batch_size = 50;

  float lr = 0.01f;
  float momentum = 0.9f;

  std::uint64_t seed = 42;
  /// Evaluate the global model on the test set every `eval_every` rounds.
  std::size_t eval_every = 1;
  /// Cap on test samples per evaluation (0 = all).
  std::size_t eval_max_samples = 0;
  /// Worker threads for parallel client training (0 = global pool size).
  std::size_t workers = 0;

  /// Communication pipeline: per-direction compressors and the simulated
  /// network. Defaults (identity / no network) are fully transparent — the
  /// run is bit-identical to one without a channel.
  comm::CommConfig comm;

  /// Round orchestration: sync (default, bit-identical to the classic
  /// loop), fastest-K, buffered async, or deadline semi-sync on the
  /// virtual clock.
  sched::SchedConfig sched;

  /// Client heterogeneity: per-client compute speed and on/off
  /// availability. Defaults (no compute model, always available) are fully
  /// transparent — the run is bit-identical to one without the subsystem.
  clients::ClientsConfig clients;

  /// Observability: spans, counters, trace/metrics export. Disabled by
  /// default — no Tracer exists and every instrumentation site is one
  /// null-pointer check; enabling it never changes CSV/params/byte
  /// accounting (docs/OBSERVABILITY.md).
  obs::ObsConfig obs;

  /// Socket transport: wire codec for distributed runs. Default (identity)
  /// keeps the legacy byte stream; any other codec compresses real socket
  /// traffic without changing results (docs/TRANSPORT.md).
  net::NetConfig net;
};

}  // namespace fedtrip::fl
