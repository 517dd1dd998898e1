#ifndef BOUNCER_PERFBENCH_DEPLOYMENT_H_
#define BOUNCER_PERFBENCH_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/tenant_registry.h"
#include "src/graph/cluster.h"
#include "src/graph/graph_store.h"
#include "src/net/net_server.h"
#include "src/server/metrics_collector.h"
#include "src/stats/flight_recorder.h"
#include "src/stats/metric_registry.h"
#include "src/util/status.h"

namespace bouncer::perfbench {

/// Monotonic nanoseconds on the same clock the program stamps its trace
/// events with (std::chrono::steady_clock via SystemClock).
Nanos NowNs();
/// User + system CPU time of the whole process, in nanoseconds.
Nanos ProcessCpuNs();
/// Linear-interpolated q-quantile (q in [0, 1]) of `values`; sorts them.
/// Returns 0 for an empty input.
double Quantile(std::vector<double>& values, double q);

/// One query of a workload's fixed query pool, with the tenant id it is
/// sent under (0 = default tenant, sent as a v1 frame).
struct PoolQuery {
  graph::GraphQuery query;
  uint64_t tenant = 0;
};

/// Traffic shape of a network workload's query pool.
enum class PoolMix {
  kCheap,     ///< 90% QT1 / 10% QT2, Zipf tenants over 1000 ids (v2 frames).
  kPaperMix,  ///< §5.4 QT1..QT11 mix, one tenant (v1 frames).
};

/// Draws `size` queries of `mix` over `graph`, deterministically from
/// `seed`.
std::vector<PoolQuery> MakeQueryPool(PoolMix mix, const graph::GraphStore& graph,
                                     size_t size, uint64_t seed);

/// Answers every pool query through an uncontended in-process cluster of
/// the same topology whose stages admit everything, so no query can be
/// refused, and whose shards skip the artificial per-edge CPU work (it
/// changes no answer); the values are what every OK network response
/// must carry.
StatusOr<std::vector<uint64_t>> ReferenceValues(
    const graph::GraphStore& graph, const std::vector<PoolQuery>& pool);

/// The §5.4 real-study deployment (topology of bench/real_common.cc):
/// one broker with 4 workers running Bouncer + acceptance-allowance
/// (A = 0.05) under the scaled queue guard (48), two single-worker shards
/// running AcceptFraction, SLO p50 = 18 ms / p90 = 50 ms for every type,
/// fronted by a NetServer with its default options on an ephemeral
/// loopback port. The graph is owned by the caller.
class Deployment {
 public:
  /// `traced` attaches the metric registry, the shard metrics collector
  /// and an enabled flight recorder (1-in-64 sampling, the recorder's
  /// default); otherwise all three stay off, as in production defaults.
  static StatusOr<std::unique_ptr<Deployment>> Start(
      const graph::GraphStore* graph, bool traced);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  graph::Cluster& cluster() { return *cluster_; }
  net::NetServer& server() { return *server_; }
  bool traced() const { return traced_; }
  stats::MetricRegistry& metrics() { return metrics_; }
  stats::FlightRecorder& recorder() { return recorder_; }
  server::MetricsCollector& shard_metrics() { return shard_metrics_; }
  size_t shard_workers_total() const;

 private:
  explicit Deployment(bool traced);

  const bool traced_;
  QueryTypeRegistry registry_;
  TenantRegistry tenants_;
  stats::MetricRegistry metrics_;
  stats::FlightRecorder recorder_;
  server::MetricsCollector shard_metrics_;
  std::unique_ptr<graph::Cluster> cluster_;
  std::unique_ptr<net::NetServer> server_;
};

/// The broker policy of the deployment (exposed so the core-layer timing
/// builds the identical policy stack).
PolicyConfig BrokerPolicyConfig();
/// Cluster options of the deployment, minus the per-run observers.
graph::Cluster::Options ClusterOptions();
/// The deployment's SLO, shared by every query type.
Slo DeploymentSlo();

}  // namespace bouncer::perfbench

#endif  // BOUNCER_PERFBENCH_DEPLOYMENT_H_
