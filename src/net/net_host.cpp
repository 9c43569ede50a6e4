#include "net/net_host.h"

#include <poll.h>

#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "net/elastic/job_table.h"
#include "net/frame.h"
#include "obs/stream.h"
#include "obs/tracer.h"

namespace fedtrip::net {
namespace {

/// Dispatches per elastic frame: a straggler holds at most one dispatch
/// hostage, and everything else it was assigned stays stealable.
constexpr std::size_t kElasticChunk = 1;
/// Attempts (first try + replays) before a job — and the run — is failed:
/// a poisoned dispatch must not kill every worker in turn.
constexpr std::size_t kMaxAttempts = 5;

}  // namespace

NetHost::NetHost(fl::RoundHost& inner, WorkerPool& pool, ElasticConfig cfg)
    : inner_(inner),
      pool_(pool),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()) {
  for (std::size_t i = 0; i < pool_.size(); ++i) health_.add_worker(now());
}

double NetHost::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::size_t NetHost::num_clients() const { return inner_.num_clients(); }
std::size_t NetHost::clients_per_round() const {
  return inner_.clients_per_round();
}
std::size_t NetHost::total_rounds() const { return inner_.total_rounds(); }
const comm::NetworkModel& NetHost::network() const {
  return inner_.network();
}
const clients::AvailabilityModel& NetHost::availability() const {
  return inner_.availability();
}
bool NetHost::compute_enabled() const { return inner_.compute_enabled(); }
double NetHost::compute_seconds(std::size_t client) const {
  return inner_.compute_seconds(client);
}
std::size_t NetHost::message_bytes(comm::Direction dir) const {
  return inner_.message_bytes(dir);
}
std::size_t NetHost::extra_down_bytes() const {
  return inner_.extra_down_bytes();
}
std::size_t NetHost::extra_up_bytes() const {
  return inner_.extra_up_bytes();
}
std::vector<std::size_t> NetHost::select(std::size_t count,
                                         const std::vector<bool>* busy) {
  return inner_.select(count, busy);
}
std::shared_ptr<const std::vector<float>> NetHost::broadcast(
    std::uint64_t key, std::size_t copies, bool alias_ok,
    std::size_t* wire_bytes) {
  return inner_.broadcast(key, copies, alias_ok, wire_bytes);
}
std::size_t NetHost::uplink(fl::ClientUpdate& update, std::uint64_t key,
                            const std::vector<float>& sent_from,
                            std::size_t round) {
  return inner_.uplink(update, key, sent_from, round);
}
void NetHost::aggregate(std::vector<fl::ClientUpdate>& updates,
                        const sched::RoundMeta& meta) {
  inner_.aggregate(updates, meta);
}
obs::Tracer* NetHost::tracer() const { return inner_.tracer(); }

std::vector<fl::ClientUpdate> NetHost::train(
    const std::vector<sched::Dispatch>& batch) {
  obs::Tracer* const tr = inner_.tracer();
  const bool elastic = pool_.elastic();
  const std::size_t num_jobs = batch.size();
  obs::WallSpan span(tr, "rpc_batch",
                     {{"batch_seq", static_cast<double>(batch_seq_ + 1)},
                      {"dispatches", static_cast<double>(num_jobs)}});
  if (tr && elastic) tr->count("net.elastic.jobs", num_jobs);

  JobTable jt(num_jobs, pool_.size());
  // One frame in flight per worker; seq 0 means idle.
  struct Outstanding {
    std::uint64_t seq = 0;
    std::vector<std::size_t> jobs;
  };
  std::vector<Outstanding> out(pool_.size());
  std::vector<fl::ClientUpdate> updates(num_jobs);
  double pre_round_flops = 0.0;
  std::size_t rr = 0;  // replay reassignment cursor

  // Elastic only: the worker leaves the run and its unfinished jobs
  // replay onto the survivors.
  auto evict = [&](std::size_t w, EvictReason reason) {
    health_.evict(w, reason);
    pool_.disconnect(w);
    ++traffic_.evicted_workers;
    if (tr) {
      tr->count("net.elastic.evicted");
      tr->count(std::string("net.elastic.evicted.") +
                evict_reason_name(reason));
    }
    const std::size_t in_flight = out[w].jobs.size();
    out[w] = Outstanding{};
    traffic_.replayed += in_flight;
    if (tr && in_flight > 0) tr->count("net.elastic.replayed", in_flight);
    const std::vector<std::size_t> orphans = jt.evict_worker(w);
    const std::vector<std::size_t> act = health_.active_slots();
    for (const std::size_t j : orphans) {
      if (jt.attempts(j) >= kMaxAttempts) {
        jt.evict_job(j);
        throw NetError(
            "dispatch for client " + std::to_string(batch[j].client_id) +
            " failed " + std::to_string(kMaxAttempts) +
            " attempts; giving up (" + health_.evicted_brief() + ")");
      }
      if (act.empty()) {
        throw NetError("every worker was lost mid-batch: " +
                       health_.evicted_brief());
      }
      jt.enqueue(j, act[rr++ % act.size()]);
    }
  };
  // A worker failure: the end of the run under a fail-fast pool, an
  // eviction under an elastic one.
  auto fail = [&](std::size_t w, EvictReason reason, const std::string& what) {
    if (!elastic) throw NetError(what);
    evict(w, reason);
  };

  const WireCodec* const wc = pool_.wire_codec();
  const std::size_t chunk =
      elastic ? kElasticChunk : std::numeric_limits<std::size_t>::max();
  auto ship = [&](std::size_t w) {
    Outstanding o;
    o.seq = ++batch_seq_;
    DispatchBatchMsg msg;
    msg.batch_seq = o.seq;
    // Snapshot vectors are deduplicated by pointer: a sync/fastk cohort
    // shares one broadcast, so it travels once per frame, not once per
    // dispatch.
    std::unordered_map<const void*, std::uint32_t> set_index;
    while (o.jobs.size() < chunk && !jt.queue(w).empty()) {
      const std::size_t j = jt.pop_dispatch(w);
      const sched::Dispatch& d = batch[j];
      auto [it, inserted] = set_index.try_emplace(
          d.params.get(), static_cast<std::uint32_t>(msg.param_sets.size()));
      if (inserted) msg.param_sets.push_back(*d.params);
      // Built from the dispatch and the coordinator's history store, both
      // fixed for the whole batch: a replay re-sends the same bytes, which
      // is what makes re-execution bit-identical by construction.
      WireDispatch wd;
      wd.seq = d.seq;
      wd.client_id = d.client_id;
      wd.round = d.round;
      wd.train_key = d.train_key;
      wd.param_set = it->second;
      if (const fl::HistoryEntry* h = inner_.client_history(d.client_id)) {
        wd.has_history = true;
        wd.history_round = h->round;
        wd.history_params = h->params;
      }
      msg.dispatches.push_back(std::move(wd));
      o.jobs.push_back(j);
    }
    // Scatter-gather emission: metadata chunks + borrowed snapshot spans
    // go out in one gathered send (msg outlives it), with no |w|-sized
    // flattening copy; the Setup-negotiated wire codec compresses each
    // float vector when that is lossless and smaller.
    SegmentWriter segs;
    WireStats ws;
    {
      obs::ScopedTimer t(tr, "wire.serialize");
      dispatch_batch_segments(msg, wc, &ws, segs);
    }
    try {
      send_frame_segments(pool_.worker(w), wire::RecordType::kNetDispatch,
                          wc->tag(), segs, tr);
    } catch (const NetError& e) {
      // The popped jobs are in flight on w; eviction requeues them.
      fail(w, EvictReason::kDisconnected, pool_.label(w) + ": " + e.what());
      return;
    }
    ++traffic_.dispatch_frames;
    traffic_.down += ws;
    if (tr && wc->active()) {
      tr->count("net.wire.down.raw_bytes", ws.raw_bytes);
      tr->count("net.wire.down.wire_bytes", ws.wire_bytes);
    }
    out[w] = std::move(o);
  };

  auto handle_frame = [&](std::size_t w) {
    const std::string& label = pool_.label(w);
    Frame f;
    try {
      // Only an elastic pool reads a clean close as a frame (a synthesized
      // shutdown) rather than a failure.
      f = recv_frame(pool_.worker(w), label.c_str(), elastic, tr);
    } catch (const NetError& e) {
      fail(w, EvictReason::kDisconnected, e.what());
      return;
    }
    auto unexpected = [&] {
      return label + ": expected train result, got frame type " +
             std::to_string(static_cast<std::uint32_t>(f.type));
    };
    switch (f.type) {
      case wire::RecordType::kNetShutdown:
        // Mid-run a close is a death however tidy it was.
        fail(w, EvictReason::kDisconnected, unexpected());
        return;
      case wire::RecordType::kNetHeartbeat:
        try {
          (void)parse_heartbeat(f.payload.data(), f.payload.size());
        } catch (const wire::WireError& e) {
          fail(w, EvictReason::kProtocolViolation,
               label + " sent a malformed heartbeat: " + e.what());
          return;
        }
        health_.heard_from(w, now());
        ++traffic_.heartbeats;
        if (tr) tr->count("net.elastic.heartbeats");
        return;
      case wire::RecordType::kNetDispatchAck: {
        DispatchAckMsg ack;
        try {
          ack = parse_dispatch_ack(f.payload.data(), f.payload.size());
        } catch (const wire::WireError& e) {
          fail(w, EvictReason::kProtocolViolation,
               label + " sent a malformed dispatch ack: " + e.what());
          return;
        }
        if (ack.batch_seq != out[w].seq ||
            ack.dispatch_count != out[w].jobs.size()) {
          fail(w, EvictReason::kProtocolViolation,
               label + " acknowledged batch " +
                   std::to_string(ack.batch_seq) + " while batch " +
                   std::to_string(out[w].seq) +
                   " was outstanding (protocol desync)");
          return;
        }
        health_.heard_from(w, now());
        return;
      }
      case wire::RecordType::kNetResult: {
        TrainResultMsg result;
        WireStats ws;
        try {
          obs::ScopedTimer t(tr, "wire.deserialize");
          result =
              parse_train_result(f.payload.data(), f.payload.size(), wc, &ws);
        } catch (const wire::WireError& e) {
          // Transport-facing contract: everything a bad peer can cause
          // surfaces as NetError with the worker named (a malformed
          // payload inside a well-formed frame included).
          fail(w, EvictReason::kProtocolViolation,
               label + " returned a malformed train result: " + e.what());
          return;
        }
        traffic_.up += ws;
        if (tr && wc->active()) {
          tr->count("net.wire.up.raw_bytes", ws.raw_bytes);
          tr->count("net.wire.up.wire_bytes", ws.wire_bytes);
        }
        Outstanding& o = out[w];
        if (o.seq == 0 || result.batch_seq != o.seq) {
          fail(w, EvictReason::kProtocolViolation,
               label + " answered batch " + std::to_string(result.batch_seq) +
                   " while batch " + std::to_string(o.seq) +
                   " was outstanding (protocol desync)");
          return;
        }
        if (result.updates.size() != o.jobs.size()) {
          fail(w, EvictReason::kProtocolViolation,
               label + " returned " + std::to_string(result.updates.size()) +
                   " updates for " + std::to_string(o.jobs.size()) +
                   " dispatches");
          return;
        }
        // Validate the whole frame before committing any of it: a bad
        // update fails the worker, and an elastic frame replays whole.
        for (std::size_t k = 0; k < o.jobs.size(); ++k) {
          const WireUpdate& u = result.updates[k];
          const sched::Dispatch& d = batch[o.jobs[k]];
          if (u.client_id != d.client_id) {
            fail(w, EvictReason::kProtocolViolation,
                 label + " returned an update for client " +
                     std::to_string(u.client_id) +
                     " at a slot dispatched to client " +
                     std::to_string(d.client_id));
            return;
          }
          if (u.params.size() != d.params->size()) {
            fail(w, EvictReason::kProtocolViolation,
                 label + " returned " + std::to_string(u.params.size()) +
                     " parameters, model has " +
                     std::to_string(d.params->size()));
            return;
          }
        }
        pre_round_flops += result.pre_round_flops;
        for (std::size_t k = 0; k < o.jobs.size(); ++k) {
          const std::size_t j = o.jobs[k];
          if (!jt.complete(j)) {
            // Replay idempotence: the job finished elsewhere first.
            ++traffic_.duplicate_results;
            if (tr) tr->count("net.elastic.duplicate_results");
            continue;
          }
          updates[j] = to_client_update(std::move(result.updates[k]));
        }
        o = Outstanding{};
        health_.heard_from(w, now());
        return;
      }
      case wire::RecordType::kNetError:
        // The worker shipped its own fatal diagnostic: it is done for;
        // under an elastic pool its work is not.
        fail(w, EvictReason::kProtocolViolation,
             label + " failed mid-round: " +
                 parse_error(f.payload.data(), f.payload.size()));
        return;
      default:
        fail(w, EvictReason::kProtocolViolation, unexpected());
        return;
    }
  };

  // A slot the stats poll lost between batches leaves before assignment.
  for (const std::size_t w : health_.active_slots()) {
    if (!pool_.connected(w)) evict(w, EvictReason::kDisconnected);
  }
  const std::vector<std::size_t> active = health_.active_slots();
  if (active.empty()) {
    throw NetError("no live workers: " + health_.evicted_brief());
  }
  // The static shard rule: a fail-fast worker rejects any other client.
  for (std::size_t j = 0; j < num_jobs; ++j) {
    jt.enqueue(j, active[batch[j].client_id % active.size()]);
  }

  while (!jt.all_completed()) {
    // Feed idle workers; an idle elastic worker with an empty queue
    // steals first.
    for (const std::size_t w : health_.active_slots()) {
      if (out[w].seq != 0) continue;
      if (elastic && jt.queue(w).empty()) {
        const std::vector<std::size_t> moved = jt.steal_into(w);
        traffic_.stolen += moved.size();
        if (tr && !moved.empty()) tr->count("net.elastic.stolen", moved.size());
      }
      if (!jt.queue(w).empty()) ship(w);
    }
    if (jt.all_completed()) break;

    // One poll round over the live sockets and the rejoin door (a
    // fail-fast pool has none: poll ignores its fd of -1).
    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;
    for (const std::size_t w : health_.active_slots()) {
      fds.push_back(pollfd{pool_.worker(w).fd(), POLLIN, 0});
      owners.push_back(w);
    }
    fds.push_back(pollfd{pool_.listener_fd(), POLLIN, 0});
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (rc > 0) {
      for (std::size_t i = 0; i < owners.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        if (health_.active(owners[i])) handle_frame(owners[i]);
      }
      if ((fds.back().revents & POLLIN) != 0) {
        const std::size_t slot = pool_.try_admit(0);
        if (slot != WorkerPool::kNoSlot) {
          health_.add_worker(now());
          jt.add_worker();
          out.resize(pool_.size());
          ++traffic_.rejoined_workers;
          if (tr) tr->count("net.elastic.rejoined");
        }
      }
    }

    // Deadline sweep AFTER the drain above: a heartbeat that was sitting
    // in the socket buffer counts as life before silence is judged.
    // Fail-fast workers send no heartbeats, so they are never swept.
    if (elastic) {
      for (const std::size_t w :
           health_.expired(now(), cfg_.worker_deadline_s)) {
        evict(w, EvictReason::kDeadlineExpired);
      }
    }
    if (health_.num_active() == 0) {
      throw NetError("every worker was lost mid-batch: " +
                     health_.evicted_brief());
    }
  }

  // The in-process train() charges only the pre-round FLOPs, and so does
  // this (exactly 0.0 for every remote-trainable method, so the frame-wise
  // sum changes nothing); each update's FLOPs are charged at its uplink.
  inner_.add_flops(pre_round_flops);

  if (metrics_ != nullptr && metrics_->due()) {
    span.end();  // the stats poll is not part of the batch RPC
    std::vector<obs::TraceLane> lanes;
    lanes.push_back(
        {"coordinator", tr != nullptr ? tr->snapshot() : obs::TraceData{}});
    for (auto& lane : pool_.collect_stats()) lanes.push_back(std::move(lane));
    // Answering the poll is a sign of life, and it consumed any
    // heartbeats queued ahead of the report.
    for (const std::size_t w : health_.active_slots()) {
      if (pool_.connected(w)) health_.heard_from(w, now());
    }
    const std::uint64_t round =
        batch.empty() ? 0 : static_cast<std::uint64_t>(batch.front().round);
    metrics_->emit(inner_.clock_seconds(), round, batch_seq_, lanes);
  }
  return updates;
}

}  // namespace fedtrip::net
