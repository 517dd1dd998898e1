#ifndef BOUNCER_PERFBENCH_LAYERS_H_
#define BOUNCER_PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "perfbench/client.h"
#include "perfbench/deployment.h"
#include "src/net/net_server.h"
#include "src/server/stage.h"

namespace bouncer::perfbench {

/// A named measurement with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Counters of every layer read at one edge of the measurement window;
/// per-layer rates are deltas between two snapshots.
struct LayerSnapshot {
  Nanos at = 0;
  Nanos cpu = 0;
  net::NetServer::Stats net;
  server::StageCounters broker;
  server::StageCounters shards;
  uint64_t shard_failures = 0;
};
LayerSnapshot TakeSnapshot(Deployment& deployment);

/// Adds the per-layer metrics of one traced run: `net.*` from the
/// server's counters, `broker.*` / `shard.*` from stage counters, the
/// registry's estimate-error histograms and the shard metrics collector,
/// `graph.*` and the trace-derived waits from the flight recorder dump
/// joined with the client's own send/receive stamps, and the per-type
/// refusal shares `core.reject_frac.QT*` from the client records.
void AddLayerMetrics(Deployment& deployment, const LayerSnapshot& begin,
                     const LayerSnapshot& end, const ClientRun& run,
                     MetricMap* out);

/// Mean time of one BrokerPolicyConfig() admission decision plus its
/// Point 1-3 hooks, in ns, replaying the §5.4 type sequence against a
/// policy built through policy_factory on the calling thread.
double DecideNs(uint64_t seed);

/// Zeroes every per-layer metric, so a workload that does not exercise
/// a layer still prints the full metric set.
void AddZeroLayerMetrics(MetricMap* out);

}  // namespace bouncer::perfbench

#endif  // BOUNCER_PERFBENCH_LAYERS_H_
