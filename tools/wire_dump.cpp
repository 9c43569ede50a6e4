// wire_dump: human-readable decode of any wire artefact — payload or
// checkpoint containers (docs/WIRE_FORMAT.md) and the distributed-runner
// transport records
// (docs/TRANSPORT.md; a captured session wrapped in a container decodes
// record by record). The inspector half of the serialization subsystem:
// when a run, a golden fixture, or a socket peer produces bytes you don't
// understand, point this at the file.
//
// Usage: wire_dump FILE...
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/compressor.h"
#include "net/protocol.h"
#include "obs/stats.h"
#include "wire/container.h"
#include "wire/payload.h"

namespace {

using namespace fedtrip;

void print_floats(const char* label, const std::vector<float>& v,
                  std::size_t head = 8) {
  std::printf("    %s[%zu]:", label, v.size());
  for (std::size_t i = 0; i < v.size() && i < head; ++i) {
    std::printf(" %g", static_cast<double>(v[i]));
  }
  if (v.size() > head) std::printf(" ...");
  std::printf("\n");
}

void print_stats(const std::vector<float>& v) {
  if (v.empty()) return;
  // min/max/mean over the finite values only (a leading NaN/Inf must not
  // poison them — corrupted artefacts are exactly what gets inspected).
  double sum = 0.0, min = 0.0, max = 0.0;
  std::size_t finite = 0;
  for (float f : v) {
    if (!std::isfinite(f)) continue;
    if (finite == 0) {
      min = max = static_cast<double>(f);
    } else {
      min = std::min(min, static_cast<double>(f));
      max = std::max(max, static_cast<double>(f));
    }
    ++finite;
    sum += f;
  }
  if (finite == 0) {
    std::printf("    finite 0/%zu\n", v.size());
    return;
  }
  std::printf("    finite %zu/%zu  min %g  max %g  mean %g\n", finite,
              v.size(), min, max, sum / static_cast<double>(finite));
}

void dump_payload(const wire::Record& rec) {
  const auto kind = static_cast<comm::Codec>(rec.aux & 0xFF);
  const comm::Encoded e =
      wire::deserialize_payload(rec.bytes.data(), rec.bytes.size(), kind);
  std::printf("  payload: codec %s  dim %zu  wire bytes %zu\n",
              comm::codec_kind_name(e.codec), e.dim, e.wire_bytes);
  switch (e.codec) {
    case comm::Codec::kIdentity:
      print_floats("values", e.values);
      print_stats(e.values);
      break;
    case comm::Codec::kTopK: {
      std::printf("    k %zu  indices:", e.indices.size());
      for (std::size_t i = 0; i < e.indices.size() && i < 8; ++i) {
        std::printf(" %u", e.indices[i]);
      }
      if (e.indices.size() > 8) std::printf(" ...");
      std::printf("\n");
      print_floats("values", e.values);
      break;
    }
    case comm::Codec::kQsgd:
      std::printf("    bits %u  lo %g  hi %g  packed %zu bytes\n",
                  e.level_bits, static_cast<double>(e.lo),
                  static_cast<double>(e.hi), e.packed.size());
      break;
    case comm::Codec::kRandMask:
      std::printf("    mask seed %llu  k %zu\n",
                  static_cast<unsigned long long>(e.mask_seed),
                  e.values.size());
      print_floats("values", e.values);
      break;
  }
}

/// Rebuilds the wire codec a dispatch/result record was framed with from
/// its aux tag (low byte: codec kind; second byte: qsgd bit width). No
/// sender-side fraction is needed to *decode* — topk and randmask
/// payloads are self-describing — so placeholder params suffice.
std::optional<net::WireCodec> codec_from_tag(std::uint32_t aux) {
  const auto kind = static_cast<comm::Codec>(aux & 0xFF);
  const int param = static_cast<int>((aux >> 8) & 0xFF);
  comm::CommParams p;
  const char* name = nullptr;
  switch (kind) {
    case comm::Codec::kIdentity:
      return std::nullopt;
    case comm::Codec::kTopK:
      name = "topk";
      break;
    case comm::Codec::kQsgd:
      name = "qsgd";
      p.qsgd_bits = param;
      break;
    case comm::Codec::kRandMask:
      name = "randmask";
      break;
  }
  if (name == nullptr) {
    throw std::runtime_error("unknown wire codec tag 0x" +
                             std::to_string(aux));
  }
  return net::WireCodec(name, p, /*seed=*/0);
}

void dump_net_record(const wire::Record& rec) {
  const std::uint8_t* data = rec.bytes.data();
  const std::size_t size = rec.bytes.size();
  const std::optional<net::WireCodec> wc = codec_from_tag(rec.aux);
  const net::WireCodec* wcp = wc.has_value() ? &*wc : nullptr;
  switch (rec.type) {
    case wire::RecordType::kNetHello: {
      const auto m = net::parse_hello(data, size);
      std::printf("  net hello: versions [%u, %u]\n", m.version_min,
                  m.version_max);
      break;
    }
    case wire::RecordType::kNetSetup: {
      const auto m = net::parse_setup(data, size);
      std::printf(
          "  net setup: method %s  worker %u/%u  clients %zu  rounds %zu  "
          "seed %llu\n",
          m.method.c_str(), m.worker_index, m.num_workers,
          m.config.num_clients, m.config.rounds,
          static_cast<unsigned long long>(m.config.seed));
      std::printf(
          "    dataset %s  model %s  schedule %s  uplink %s  downlink %s  "
          "availability %s\n",
          m.config.dataset.c_str(), nn::arch_name(m.config.model.arch),
          m.config.sched.policy.c_str(), m.config.comm.uplink.c_str(),
          m.config.comm.downlink.c_str(),
          m.config.clients.availability.c_str());
      break;
    }
    case wire::RecordType::kNetSetupAck: {
      const auto m = net::parse_setup_ack(data, size);
      std::printf("  net setup ack: |w| = %llu\n",
                  static_cast<unsigned long long>(m.param_dim));
      break;
    }
    case wire::RecordType::kNetDispatch: {
      net::WireStats ws;
      const auto m = net::parse_dispatch_batch(data, size, wcp, &ws);
      std::printf("  net dispatch batch %llu: %zu snapshot(s), %zu "
                  "dispatch(es)\n",
                  static_cast<unsigned long long>(m.batch_seq),
                  m.param_sets.size(), m.dispatches.size());
      if (wcp != nullptr) {
        std::printf("    wire codec %s (tag 0x%x): %llu wire bytes for "
                    "%llu raw, %llu vec(s) encoded, %llu raw\n",
                    wcp->name().c_str(), rec.aux,
                    static_cast<unsigned long long>(ws.wire_bytes),
                    static_cast<unsigned long long>(ws.raw_bytes),
                    static_cast<unsigned long long>(ws.encoded_vecs),
                    static_cast<unsigned long long>(ws.raw_vecs));
      }
      for (const auto& d : m.dispatches) {
        std::printf("    seq %llu  client %llu  round %llu  snapshot %u  "
                    "history %s\n",
                    static_cast<unsigned long long>(d.seq),
                    static_cast<unsigned long long>(d.client_id),
                    static_cast<unsigned long long>(d.round), d.param_set,
                    d.has_history ? "yes" : "no");
      }
      break;
    }
    case wire::RecordType::kNetResult: {
      net::WireStats ws;
      const auto m = net::parse_train_result(data, size, wcp, &ws);
      std::printf("  net train result batch %llu: %zu update(s), pre-round "
                  "flops %g\n",
                  static_cast<unsigned long long>(m.batch_seq),
                  m.updates.size(), m.pre_round_flops);
      if (wcp != nullptr) {
        std::printf("    wire codec %s (tag 0x%x): %llu wire bytes for "
                    "%llu raw, %llu vec(s) encoded, %llu raw\n",
                    wcp->name().c_str(), rec.aux,
                    static_cast<unsigned long long>(ws.wire_bytes),
                    static_cast<unsigned long long>(ws.raw_bytes),
                    static_cast<unsigned long long>(ws.encoded_vecs),
                    static_cast<unsigned long long>(ws.raw_vecs));
      }
      for (const auto& u : m.updates) {
        std::printf("    client %llu  samples %llu  loss %g  |w| %zu  "
                    "aux %zu\n",
                    static_cast<unsigned long long>(u.client_id),
                    static_cast<unsigned long long>(u.num_samples),
                    u.train_loss, u.params.size(), u.aux.size());
      }
      break;
    }
    case wire::RecordType::kNetShutdown:
      std::printf("  net shutdown\n");
      break;
    case wire::RecordType::kNetError:
      std::printf("  net error: %s\n",
                  net::parse_error(data, size).c_str());
      break;
    case wire::RecordType::kNetStatsReq:
      std::printf("  net stats request\n");
      break;
    case wire::RecordType::kNetHeartbeat: {
      const auto m = net::parse_heartbeat(data, size);
      std::printf("  net heartbeat: %llu dispatch(es) done, executing "
                  "batch %llu\n",
                  static_cast<unsigned long long>(m.dispatches_done),
                  static_cast<unsigned long long>(m.batch_seq));
      break;
    }
    case wire::RecordType::kNetDispatchAck: {
      const auto m = net::parse_dispatch_ack(data, size);
      std::printf("  net dispatch ack: batch %llu, %u dispatch(es)\n",
                  static_cast<unsigned long long>(m.batch_seq),
                  m.dispatch_count);
      break;
    }
    case wire::RecordType::kNetStats: {
      const auto d = obs::parse_stats(data, size);
      std::printf("  net stats report: %zu counter(s), %zu gauge(s), %zu "
                  "timer(s), %zu span(s)\n",
                  d.counters.size(), d.gauges.size(), d.timers_ns.size(),
                  d.spans.size());
      for (const auto& [name, value] : d.counters) {
        std::printf("    counter %s = %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      }
      for (const auto& [name, value] : d.gauges) {
        std::printf("    gauge %s = %g\n", name.c_str(), value);
      }
      for (const auto& [name, ns] : d.timers_ns) {
        std::printf("    timer %s = %llu ns\n", name.c_str(),
                    static_cast<unsigned long long>(ns));
      }
      for (std::size_t i = 0; i < d.spans.size() && i < 16; ++i) {
        const auto& s = d.spans[i];
        std::printf("    span %s  [%g, %g] %s track %u\n",
                    obs::format_span(s).c_str(), s.t0, s.t1,
                    s.clock == obs::SpanClock::kVirtual ? "virtual" : "wall",
                    s.track);
      }
      if (d.spans.size() > 16) std::printf("    ... and %zu more span(s)\n",
                                           d.spans.size() - 16);
      break;
    }
    default:
      break;
  }
}

int dump_file(const char* path) {
  const auto buf = wire::read_file(path);
  std::printf("%s: %zu bytes\n", path, buf.size());

  const auto records = wire::read_container(buf.data(), buf.size());
  std::printf("  FTWIRE container, version %u, %zu record(s)\n",
              wire::kVersion, records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    std::printf("  record %zu: type %u  aux 0x%x  %zu bytes\n", i,
                static_cast<unsigned>(rec.type), rec.aux, rec.bytes.size());
    switch (rec.type) {
      case wire::RecordType::kCheckpoint: {
        const auto params =
            wire::deserialize_params(rec.bytes.data(), rec.bytes.size());
        std::printf("  checkpoint: %zu parameters\n", params.size());
        print_floats("params", params);
        print_stats(params);
        break;
      }
      case wire::RecordType::kPayload:
        dump_payload(rec);
        break;
      case wire::RecordType::kNetHello:
      case wire::RecordType::kNetSetup:
      case wire::RecordType::kNetSetupAck:
      case wire::RecordType::kNetDispatch:
      case wire::RecordType::kNetResult:
      case wire::RecordType::kNetShutdown:
      case wire::RecordType::kNetError:
      case wire::RecordType::kNetStatsReq:
      case wire::RecordType::kNetStats:
      case wire::RecordType::kNetHeartbeat:
      case wire::RecordType::kNetDispatchAck:
        dump_net_record(rec);
        break;
      default:
        std::printf("  (unknown record type — skipped)\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: wire_dump FILE...\n");
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    try {
      dump_file(argv[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[i], e.what());
      rc = 1;
    }
  }
  return rc;
}
