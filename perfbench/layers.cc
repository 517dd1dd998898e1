#include "perfbench/layers.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "src/core/policy_factory.h"
#include "src/core/queue_state.h"
#include "src/graph/cluster.h"
#include "src/net/protocol.h"
#include "src/util/rng.h"
#include "src/workload/workload_spec.h"

namespace bouncer::perfbench {

namespace {

using graph::Cluster;
using graph::GraphOp;

/// Every per-layer metric with its unit, in output order.
const struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"net.syscalls_per_req", "count"},
    {"net.wakeups_per_req", "count"},
    {"net.batch_size", "count"},
    {"net.pauses_per_kreq", "count"},
    {"net.ingress_us_p50", "us"},
    {"net.egress_us_p50", "us"},
    {"broker.admit_us_p50", "us"},
    {"broker.queue_wait_us_p50", "us"},
    {"broker.queue_wait_us_p99", "us"},
    {"broker.service_us_p50", "us"},
    {"broker.reject_frac", "fraction"},
    {"broker.shed_frac", "fraction"},
    {"broker.est_wait_err_us_p50", "us"},
    {"graph.rounds_per_query", "count"},
    {"graph.scatter_gather_us_p50", "us"},
    {"shard.queue_wait_us_p50", "us"},
    {"shard.service_us_p50", "us"},
    {"shard.utilization", "fraction"},
    {"shard.fail_frac", "fraction"},
    {"core.decide_ns", "ns"},
    {"core.reject_frac.QT1", "fraction"},
    {"core.reject_frac.QT6", "fraction"},
    {"core.reject_frac.QT11", "fraction"},
    {"sim.ns_per_event", "ns"},
    {"client.goodput_per_s", "1/s"},
    {"client.latency_p50_ms", "ms"},
    {"client.latency_p90_ms", "ms"},
    {"client.latency_p99_ms", "ms"},
    {"client.gen_lag_ms_p99", "ms"},
    {"client.refused_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

const char* UnitOf(const std::string& name) {
  for (const auto& m : kLayerMetrics) {
    if (name == m.name) return m.unit;
  }
  std::abort();  // Every caller passes a name from the table.
}

void Put(MetricMap* out, const std::string& name, double value) {
  (*out)[name] = Metric{value, UnitOf(name)};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

server::StageCounters Sum(const server::StageCounters& a,
                          const server::StageCounters& b) {
  return {a.received + b.received, a.accepted + b.accepted,
          a.rejected + b.rejected, a.expired + b.expired,
          a.shedded + b.shedded,   a.completed + b.completed};
}

/// One flight-recorder event, reduced to what the analysis reads.
struct Event {
  Nanos ts = 0;
  std::string kind;
  int64_t arg0 = 0;
};

int64_t FieldInt(const char* line, const char* key) {
  const char* p = std::strstr(line, key);
  return p == nullptr ? 0 : std::strtoll(p + std::strlen(key), nullptr, 10);
}

/// Groups the recorder's JSONL dump by request id, each group sorted by
/// time.
std::unordered_map<uint64_t, std::vector<Event>> ParseDump(
    const std::string& dump) {
  std::unordered_map<uint64_t, std::vector<Event>> by_id;
  size_t pos = 0;
  while (pos < dump.size()) {
    size_t eol = dump.find('\n', pos);
    if (eol == std::string::npos) eol = dump.size();
    const std::string line = dump.substr(pos, eol - pos);
    pos = eol + 1;
    const char* kind = std::strstr(line.c_str(), "\"kind\":\"");
    if (kind == nullptr) continue;
    kind += std::strlen("\"kind\":\"");
    const char* kind_end = std::strchr(kind, '"');
    if (kind_end == nullptr) continue;
    const char* id = std::strstr(line.c_str(), "\"id\":");
    if (id == nullptr) continue;
    Event event;
    event.ts = FieldInt(line.c_str(), "\"ts\":");
    event.kind.assign(kind, kind_end);
    event.arg0 = FieldInt(line.c_str(), "\"arg0\":");
    by_id[std::strtoull(id + std::strlen("\"id\":"), nullptr, 10)].push_back(
        std::move(event));
  }
  for (auto& [id, events] : by_id) {
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.ts < b.ts; });
  }
  return by_id;
}

double Us(Nanos ns) { return static_cast<double>(ns) / 1e3; }

/// Signed median of the estimate error (actual - estimated queue wait)
/// from the stage's two one-sided histograms.
double SignedMedianErrorUs(const stats::Histogram& under,
                           const stats::Histogram& over) {
  const double u = static_cast<double>(under.Count());
  const double o = static_cast<double>(over.Count());
  const double half = (u + o) / 2.0;
  if (u + o == 0) return 0.0;
  if (u >= half) return Us(under.Percentile((half - o) / u));
  return -Us(over.Percentile(1.0 - half / o));
}

}  // namespace

LayerSnapshot TakeSnapshot(Deployment& deployment) {
  LayerSnapshot s;
  s.at = NowNs();
  s.cpu = ProcessCpuNs();
  s.net = deployment.server().AggregateStats();
  graph::Cluster& cluster = deployment.cluster();
  s.broker = cluster.broker(0)->counters();
  for (size_t i = 0; i < cluster.num_shards(); ++i) {
    s.shards = Sum(s.shards, cluster.shard(i)->counters());
  }
  s.shard_failures = cluster.shard_failures();
  return s;
}

void AddLayerMetrics(Deployment& deployment, const LayerSnapshot& begin,
                     const LayerSnapshot& end, const ClientRun& run,
                     MetricMap* out) {
  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double responses = delta(begin.net.responses, end.net.responses);
  const double requests = delta(begin.net.requests, end.net.requests);
  Put(out, "net.syscalls_per_req",
      Ratio(delta(begin.net.syscalls, end.net.syscalls), responses));
  Put(out, "net.wakeups_per_req",
      Ratio(delta(begin.net.wakeups, end.net.wakeups), responses));
  Put(out, "net.batch_size",
      Ratio(requests,
            delta(begin.net.submit_batches, end.net.submit_batches)));
  Put(out, "net.pauses_per_kreq",
      1000.0 * Ratio(delta(begin.net.pauses, end.net.pauses), requests));

  const double broker_received =
      delta(begin.broker.received, end.broker.received);
  Put(out, "broker.reject_frac",
      Ratio(delta(begin.broker.rejected, end.broker.rejected),
            broker_received));
  Put(out, "broker.shed_frac",
      Ratio(delta(begin.broker.shedded, end.broker.shedded), broker_received));
  stats::MetricRegistry& metrics = deployment.metrics();
  Put(out, "broker.est_wait_err_us_p50",
      SignedMedianErrorUs(
          *metrics.GetHistogram("stage.broker-0.est_wait_err_under_ns"),
          *metrics.GetHistogram("stage.broker-0.est_wait_err_over_ns")));

  const double window_ms = static_cast<double>(end.at - begin.at) / 1e6;
  const server::TypeReport shard = deployment.shard_metrics().Overall();
  Put(out, "shard.service_us_p50", shard.pt_p50_ms * 1e3);
  Put(out, "shard.utilization",
      Ratio(shard.BusyMs(),
            window_ms * static_cast<double>(deployment.shard_workers_total())));
  Put(out, "shard.fail_frac",
      Ratio(delta(begin.shard_failures, end.shard_failures),
            delta(begin.shards.received, end.shards.received)));

  // Client-side view: refusals per type, generator lag.
  uint64_t attempted = 0;
  uint64_t refused = 0;
  uint64_t per_type_attempted[graph::kNumGraphOps] = {};
  uint64_t per_type_rejected[graph::kNumGraphOps] = {};
  std::vector<double> gen_lag_ms;
  for (const auto& records : run.records) {
    for (const RequestRecord& r : records) {
      if (r.due < run.window_start || r.due >= run.window_end) continue;
      ++attempted;
      ++per_type_attempted[r.op];
      gen_lag_ms.push_back(static_cast<double>(r.sent - r.due) / 1e6);
      if (r.state != RequestState::kDone) continue;
      const auto status = static_cast<net::ResponseStatus>(r.status);
      if (status == net::ResponseStatus::kOk) continue;
      ++refused;
      if (status == net::ResponseStatus::kRejected) {
        ++per_type_rejected[r.op];
      }
    }
  }
  Put(out, "client.gen_lag_ms_p99", Quantile(gen_lag_ms, 0.99));
  Put(out, "client.refused_frac",
      Ratio(static_cast<double>(refused), static_cast<double>(attempted)));
  const std::pair<const char*, GraphOp> kTypes[] = {
      {"core.reject_frac.QT1", GraphOp::kDegree},
      {"core.reject_frac.QT6", GraphOp::kTopKNeighbors},
      {"core.reject_frac.QT11", GraphOp::kDistance4},
  };
  for (const auto& [name, op] : kTypes) {
    const size_t i = static_cast<size_t>(op);
    Put(out, name,
        Ratio(static_cast<double>(per_type_rejected[i]),
              static_cast<double>(per_type_attempted[i])));
  }

  // Trace-derived spans: join sampled requests' recorder events with the
  // client's own send/receive stamps (same steady clock).
  std::string dump;
  deployment.recorder().Dump(&dump);
  const auto by_id = ParseDump(dump);
  std::vector<double> ingress, egress, admit, wait, service, shard_wait,
      scatter_gather;
  uint64_t traced = 0;
  uint64_t rounds = 0;
  for (const auto& [id, events] : by_id) {
    const uint64_t thread = id >> ClientRun::kThreadShift;
    const uint64_t index = id & ((uint64_t{1} << ClientRun::kThreadShift) - 1);
    if (thread >= run.records.size() || index >= run.records[thread].size()) {
      continue;
    }
    const RequestRecord& r = run.records[thread][index];
    if (r.due < run.window_start || r.due >= run.window_end ||
        r.state != RequestState::kDone ||
        static_cast<net::ResponseStatus>(r.status) !=
            net::ResponseStatus::kOk) {
      continue;
    }
    // A request's events in time order: net_parse, the broker's
    // admission and dequeue, then per round one shard_scatter per shard
    // touched, each shard's admission and dequeue, one shard_gather, and
    // finally response_write. The first admission/dequeue is the broker's.
    Nanos parse = -1, broker_admit = -1, broker_dequeue = -1, write = -1;
    Nanos round_start = -1;
    uint64_t request_rounds = 0;
    for (const Event& e : events) {
      if (e.kind == "net_parse" && parse < 0) {
        parse = e.ts;
      } else if (e.kind == "admission" && broker_admit < 0) {
        broker_admit = e.ts;
      } else if (e.kind == "dequeue") {
        if (broker_dequeue < 0) {
          broker_dequeue = e.ts;
          wait.push_back(Us(e.arg0));
        } else {
          shard_wait.push_back(Us(e.arg0));
        }
      } else if (e.kind == "shard_scatter" && round_start < 0) {
        round_start = e.ts;
      } else if (e.kind == "shard_gather" && round_start >= 0) {
        scatter_gather.push_back(Us(e.ts - round_start));
        round_start = -1;
        ++request_rounds;
      } else if (e.kind == "response_write") {
        write = e.ts;
      }
    }
    if (parse < 0 || broker_admit < 0 || broker_dequeue < 0 || write < 0) {
      continue;  // Partially retained (ring lapped); skip it whole.
    }
    ++traced;
    rounds += request_rounds;
    ingress.push_back(Us(parse - r.sent));
    egress.push_back(Us(r.recv - write));
    admit.push_back(Us(broker_admit - parse));
    service.push_back(Us(write - broker_dequeue));
  }
  Put(out, "net.ingress_us_p50", Quantile(ingress, 0.5));
  Put(out, "net.egress_us_p50", Quantile(egress, 0.5));
  Put(out, "broker.admit_us_p50", Quantile(admit, 0.5));
  Put(out, "broker.queue_wait_us_p50", Quantile(wait, 0.5));
  Put(out, "broker.queue_wait_us_p99", Quantile(wait, 0.99));
  Put(out, "broker.service_us_p50", Quantile(service, 0.5));
  Put(out, "graph.rounds_per_query",
      Ratio(static_cast<double>(rounds), static_cast<double>(traced)));
  Put(out, "graph.scatter_gather_us_p50", Quantile(scatter_gather, 0.5));
  Put(out, "shard.queue_wait_us_p50", Quantile(shard_wait, 0.5));
}

double DecideNs(uint64_t seed) {
  const QueryTypeRegistry registry = Cluster::MakeRegistry(DeploymentSlo());
  QueueState queue(registry.size());
  const PolicyContext context{&registry, &queue, /*parallelism=*/4};
  auto policy = CreatePolicy(BrokerPolicyConfig(), context);
  if (!policy.ok()) return 0.0;

  // The §5.4 type sequence with sampled processing times, drawn before
  // timing; the replay runs at 1500 QPS of virtual time so the 2 s
  // histogram swaps happen, with a queue of up to 8 admitted queries.
  constexpr size_t kItems = 1 << 20;
  const workload::WorkloadSpec mix = workload::PaperRealSystemMix();
  Rng rng(seed);
  std::vector<QueryTypeId> types(kItems);
  std::vector<Nanos> pt(kItems);
  for (size_t i = 0; i < kItems; ++i) {
    const size_t index = mix.SampleType(rng);
    types[i] = Cluster::TypeIdFor(static_cast<GraphOp>(index));
    pt[i] = mix.SampleProcessingTime(index, rng);
  }
  constexpr Nanos kGap = kSecond / 1500;
  struct Queued {
    QueryTypeId type;
    Nanos enqueued;
    Nanos pt;
  };
  std::deque<Queued> fifo;
  AdmissionPolicy& p = **policy;
  const Nanos start = NowNs();
  Nanos now = 0;
  for (size_t i = 0; i < kItems; ++i) {
    now += kGap;
    const QueryTypeId type = types[i];
    if (p.Decide(type, now) == Decision::kAccept) {
      queue.OnEnqueued(type);
      p.OnEnqueued(type, now);
      fifo.push_back({type, now, pt[i]});
    } else {
      p.OnRejected(type, now);
    }
    if (fifo.size() > 8) {
      const Queued q = fifo.front();
      fifo.pop_front();
      queue.OnDequeued(q.type);
      p.OnDequeued(q.type, now - q.enqueued, now);
      p.OnCompleted(q.type, q.pt, now);
    }
  }
  return static_cast<double>(NowNs() - start) / kItems;
}

void AddZeroLayerMetrics(MetricMap* out) {
  for (const auto& m : kLayerMetrics) (*out)[m.name] = Metric{0.0, m.unit};
}

}  // namespace bouncer::perfbench
