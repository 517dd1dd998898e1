// Network load client for graph_service --listen: drives the binary TCP
// protocol either open-loop (Poisson departures at --qps via the
// paper's real-system mix, drops counted when server backpressure fills
// the local queue) or closed-loop (--closed-loop: a fixed in-flight
// window per connection, the saturation mode).
//
//   ./build/examples/graph_service --listen=7317 &
//   ./build/examples/net_client --port=7317 --qps=500 --duration-s=5
//   ./build/examples/net_client --port=7317 --closed-loop --in-flight=32
//
//   ./build/examples/net_client --help

#include <atomic>
#include <cstdio>
#include <thread>

#include "examples/flags.h"
#include "src/net/admin_client.h"
#include "src/net/net_client.h"
#include "src/util/rng.h"
#include "src/workload/load_generator.h"
#include "src/workload/tenant_mix.h"

using namespace bouncer;

namespace {

void PrintHelp() {
  std::printf(
      "net_client — TCP load client for graph_service --listen\n\n"
      "  --host=A          server address (default 127.0.0.1)\n"
      "  --port=N          server port (required)\n"
      "  --connections=N   TCP connections (default 8)\n"
      "  --threads=N       client IO event loops (default 2;\n"
      "                    --loops=N is an alias, mirroring the server)\n"
      "  --duration-s=N    run length in seconds (default 5)\n"
      "  --vertices=N      vertex-id space of the server's graph "
      "(default 50000)\n"
      "  --deadline-ms=F   per-query deadline (0 = none)\n"
      "  --seed=N          RNG seed (default 1)\n"
      "  --tenants=N       stamp tenant ids 1..N on requests (default 0:\n"
      "                    no tenant field, v1 frames)\n"
      "  --tenant-dist=D   rr (round-robin, default) or zipf (skewed,\n"
      "                    tenant 1 hottest)\n"
      "  --tenant-zipf-s=F Zipf exponent for --tenant-dist=zipf "
      "(default 1.0)\n\n"
      "  open loop (default)\n"
      "  --qps=F           offered rate (default 500)\n\n"
      "  closed loop\n"
      "  --closed-loop     saturate instead of pacing\n"
      "  --in-flight=N     window per connection (default 16)\n\n"
      "  admin\n"
      "  --stats[=json]    fetch the server's live metric snapshot and\n"
      "                    print it; =prom for Prometheus text, =trace "
      "for\n"
      "                    the flight-recorder JSONL dump. No load is\n"
      "                    generated in this mode.\n");
}

void PrintSummary(const char* label, const stats::HistogramSummary& s) {
  std::printf("%-8s n=%-9llu p50=%8.2fms  p90=%8.2fms  p99=%8.2fms\n", label,
              static_cast<unsigned long long>(s.count),
              ToMillis(s.p50), ToMillis(s.p90), ToMillis(s.p99));
}

}  // namespace

int main(int argc, char** argv) {
  examples::CliFlags flags(argc, argv);
  if (flags.help()) {
    PrintHelp();
    return 0;
  }
  net::NetClient::Options options;
  options.host = flags.GetString("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(flags.GetUint("port", 0));
  options.num_connections = flags.GetUint("connections", 8);
  options.num_io_threads =
      flags.GetUint("threads", flags.GetUint("loops", 2));
  options.in_flight_per_conn = flags.GetUint("in-flight", 16);
  const double qps = flags.GetDouble("qps", 500);
  const auto duration_s = flags.GetUint("duration-s", 5);
  const bool closed_loop = flags.GetBool("closed-loop", false);
  const auto vertices =
      static_cast<uint32_t>(flags.GetUint("vertices", 50'000));
  const double deadline_ms = flags.GetDouble("deadline-ms", 0);
  const uint64_t seed = flags.GetUint("seed", 1);
  const uint64_t num_tenants = flags.GetUint("tenants", 0);
  const std::string tenant_dist = flags.GetString("tenant-dist", "rr");
  const double tenant_zipf_s = flags.GetDouble("tenant-zipf-s", 1.0);
  const bool stats_mode = flags.Has("stats");
  const std::string stats_kind = flags.GetString("stats", "json");
  const auto unknown = flags.Unknown();
  if (!unknown.empty()) {
    for (const auto& flag : unknown) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", flag.c_str());
    }
    return 1;
  }
  if (options.port == 0) {
    std::fprintf(stderr, "--port is required (try --help)\n");
    return 1;
  }

  if (stats_mode) {
    const std::string& kind = stats_kind;
    net::AdminFetch fetch;
    fetch.host = options.host;
    fetch.port = options.port;
    if (kind == "json" || kind.empty()) {
      fetch.op = net::kOpStatsJson;
    } else if (kind == "prom" || kind == "prometheus") {
      fetch.op = net::kOpStatsPrometheus;
    } else if (kind == "trace") {
      fetch.op = net::kOpTraceDump;
    } else {
      std::fprintf(stderr, "unknown --stats kind: %s (json|prom|trace)\n",
                   kind.c_str());
      return 1;
    }
    std::string payload;
    if (Status s = net::FetchAdmin(fetch, &payload); !s.ok()) {
      std::fprintf(stderr, "stats fetch failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fwrite(payload.data(), 1, payload.size(), stdout);
    if (payload.empty() || payload.back() != '\n') std::printf("\n");
    return 0;
  }

  if (tenant_dist != "rr" && tenant_dist != "zipf") {
    std::fprintf(stderr, "unknown --tenant-dist: %s (rr|zipf)\n",
                 tenant_dist.c_str());
    return 1;
  }

  const workload::WorkloadSpec mix = workload::PaperRealSystemMix();
  const workload::TenantMix tenant_mix =
      num_tenants > 0 && tenant_dist == "zipf"
          ? workload::ZipfianTenantMix(num_tenants, tenant_zipf_s)
          : workload::TenantMix();
  std::atomic<uint64_t> tenant_rr{0};
  const auto deadline_ns =
      static_cast<uint64_t>(deadline_ms * 1'000'000.0);
  const auto make_frame = [&](Rng& rng) {
    net::RequestFrame frame;
    frame.op = static_cast<uint8_t>(mix.SampleType(rng));
    frame.source = static_cast<uint32_t>(rng.NextBounded(vertices));
    frame.target = static_cast<uint32_t>(rng.NextBounded(vertices));
    frame.external_id = rng.NextU64();
    frame.deadline_ns = deadline_ns;
    if (num_tenants > 0) {
      frame.tenant =
          tenant_dist == "zipf"
              ? tenant_mix.SampleExternalId(rng)
              : tenant_rr.fetch_add(1, std::memory_order_relaxed) %
                        num_tenants +
                    1;
    }
    return frame;
  };

  // Closed-loop sampler: one RNG per connection (called concurrently for
  // distinct connections, never for the same one).
  std::vector<Rng> conn_rngs;
  conn_rngs.reserve(options.num_connections);
  for (size_t i = 0; i < options.num_connections; ++i) {
    conn_rngs.emplace_back(seed + i * 7919);
  }
  net::NetClient client(options, [&](size_t conn_index, uint64_t) {
    return make_frame(conn_rngs[conn_index]);
  });
  if (Status s = client.Start(); !s.ok()) {
    std::fprintf(stderr, "client start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  if (closed_loop) {
    std::printf("closed loop: %zu conns x %zu in flight, %llus\n",
                options.num_connections, options.in_flight_per_conn,
                static_cast<unsigned long long>(duration_s));
    client.StartClosedLoop();
    std::this_thread::sleep_for(std::chrono::seconds(duration_s));
    client.StopSending();
  } else {
    std::printf("open loop: %.0f qps over %zu conns, %llus\n", qps,
                options.num_connections,
                static_cast<unsigned long long>(duration_s));
    Rng open_rng(seed);
    workload::LoadGenerator::Options generator_options;
    generator_options.rate_qps = qps;
    generator_options.duration = static_cast<Nanos>(duration_s) * kSecond;
    generator_options.seed = seed;
    workload::LoadGenerator generator(&mix, generator_options,
                                      [&](size_t type_index, Nanos due) {
                                        net::RequestFrame frame =
                                            make_frame(open_rng);
                                        frame.op =
                                            static_cast<uint8_t>(type_index);
                                        client.TrySend(frame, due);
                                      });
    generator.Run();
  }
  client.WaitForDrain(2 * kSecond);

  const auto counters = client.counters();
  std::printf(
      "\nqueued=%llu responses=%llu ok=%llu rejected=%llu shedded=%llu "
      "expired=%llu failed=%llu dropped=%llu conn_errors=%llu\n",
      static_cast<unsigned long long>(counters.queued),
      static_cast<unsigned long long>(counters.responses),
      static_cast<unsigned long long>(counters.ok),
      static_cast<unsigned long long>(counters.rejected),
      static_cast<unsigned long long>(counters.shedded),
      static_cast<unsigned long long>(counters.expired),
      static_cast<unsigned long long>(counters.failed),
      static_cast<unsigned long long>(counters.dropped),
      static_cast<unsigned long long>(counters.conn_errors));
  std::printf(
      "reasons: policy=%llu queue=%llu expired=%llu shard=%llu\n",
      static_cast<unsigned long long>(counters.reason_policy),
      static_cast<unsigned long long>(counters.reason_queue),
      static_cast<unsigned long long>(counters.reason_expired),
      static_cast<unsigned long long>(counters.reason_shard));
  PrintSummary("ALL", client.Latency());
  PrintSummary("QT1", client.LatencyFor(graph::GraphOp::kDegree));
  PrintSummary("QT11", client.LatencyFor(graph::GraphOp::kDistance4));
  client.Stop();
  return counters.conn_errors == 0 ? 0 : 1;
}
