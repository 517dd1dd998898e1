#include "perfbench/deployment.h"

#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "src/util/clock.h"
#include "src/util/rng.h"
#include "src/workload/tenant_mix.h"
#include "src/workload/workload_spec.h"

namespace bouncer::perfbench {

using graph::Cluster;
using graph::GraphOp;

Nanos NowNs() { return SystemClock::Global()->Now(); }

Nanos ProcessCpuNs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<Nanos>(tv.tv_sec) * kSecond +
           static_cast<Nanos>(tv.tv_usec) * kMicrosecond;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Slo DeploymentSlo() { return Slo{18 * kMillisecond, 50 * kMillisecond, 0}; }

PolicyConfig BrokerPolicyConfig() {
  // bench/real_common.cc RealBrokerPolicies()[0]: Bouncer + allowance
  // A = 0.05 with 2 s histogram windows, capped by the scaled L_limit.
  PolicyConfig config;
  config.kind = PolicyKind::kBouncerWithAllowance;
  config.bouncer.histogram_swap_interval = 2 * kSecond;
  config.bouncer.min_samples_to_publish = 30;
  config.allowance.allowance = 0.05;
  config.queue_guard_limit = 48;
  return config;
}

Cluster::Options ClusterOptions() {
  // bench/real_common.cc DefaultRealParams() topology.
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 4;
  options.num_shards = 2;
  options.shard_workers = 1;
  options.work_per_edge = 24;
  options.shard_policy.kind = PolicyKind::kAcceptFraction;
  options.shard_policy.accept_fraction.max_utilization = 0.98;
  options.shard_policy.accept_fraction.window_duration = kSecond;
  options.shard_policy.accept_fraction.window_step = 50 * kMillisecond;
  options.shard_policy.accept_fraction.update_interval = 50 * kMillisecond;
  options.shard_policy.queue_guard_limit = 4000;
  options.broker_policy = BrokerPolicyConfig();
  return options;
}

std::vector<PoolQuery> MakeQueryPool(PoolMix mix, const graph::GraphStore& graph,
                                     size_t size, uint64_t seed) {
  Rng rng(seed);
  const workload::WorkloadSpec paper = workload::PaperRealSystemMix();
  const workload::TenantMix tenants = workload::ZipfianTenantMix(1000);
  std::vector<PoolQuery> pool;
  pool.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    PoolQuery q;
    GraphOp op;
    if (mix == PoolMix::kCheap) {
      op = rng.NextBernoulli(0.9) ? GraphOp::kDegree : GraphOp::kNeighbors;
      q.tenant = tenants.SampleExternalId(rng);
    } else {
      op = static_cast<GraphOp>(paper.SampleType(rng));
    }
    q.query = Cluster::SampleQuery(op, graph, rng);
    pool.push_back(q);
  }
  return pool;
}

StatusOr<std::vector<uint64_t>> ReferenceValues(
    const graph::GraphStore& graph, const std::vector<PoolQuery>& pool) {
  const QueryTypeRegistry registry = Cluster::MakeRegistry(DeploymentSlo());
  Cluster::Options options = ClusterOptions();
  options.broker_policy = PolicyConfig{};
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy = PolicyConfig{};
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  // The per-edge work only burns CPU into a checksum no answer reads;
  // without it the pass is quick and its time is the graph walk.
  options.work_per_edge = 0;
  // A private, disabled recorder: the pass must not land in the traces.
  stats::FlightRecorder recorder;
  options.recorder = &recorder;
  Cluster cluster(&graph, &registry, SystemClock::Global(), options);
  Status status = cluster.Start();
  if (!status.ok()) return status;

  // Enough queries in flight to keep every worker busy, so the pass is
  // bound by its work, not by worker wake-ups between queries.
  constexpr size_t kInFlight = 32;
  std::vector<uint64_t> values(pool.size(), 0);
  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;
  size_t failures = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < kInFlight; });
      ++in_flight;
    }
    cluster.Submit(pool[i].query, /*deadline=*/0,
                   [&, i](const server::WorkItem&, server::Outcome outcome,
                          const graph::GraphQueryResult& result) {
                     std::lock_guard<std::mutex> lock(mu);
                     if (outcome == server::Outcome::kCompleted && result.ok) {
                       values[i] = result.value;
                     } else {
                       ++failures;
                     }
                     --in_flight;
                     cv.notify_all();
                   });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_flight == 0; });
  }
  cluster.Stop();
  if (failures > 0) {
    return Status::Internal("reference pass: " + std::to_string(failures) +
                            " queries failed");
  }
  return values;
}

Deployment::Deployment(bool traced)
    : traced_(traced),
      registry_(Cluster::MakeRegistry(DeploymentSlo())),
      shard_metrics_(registry_.size()) {}

Deployment::~Deployment() {
  // NetServer first: completions the cluster flushes while stopping still
  // land in the server's rings.
  if (server_ != nullptr) server_->Stop();
  if (cluster_ != nullptr) cluster_->Stop();
}

StatusOr<std::unique_ptr<Deployment>> Deployment::Start(
    const graph::GraphStore* graph, bool traced) {
  std::unique_ptr<Deployment> d(new Deployment(traced));
  Cluster::Options options = ClusterOptions();
  options.tenants = &d->tenants_;
  options.recorder = &d->recorder_;
  if (traced) {
    options.metrics = &d->metrics_;
    options.shard_metrics = &d->shard_metrics_;
    d->shard_metrics_.SetRecording(false);
    d->recorder_.Configure({/*ring_capacity=*/1 << 16,
                            /*sampling_period=*/64,
                            /*sampling_seed=*/0x9e3779b97f4a7c15ull});
    d->recorder_.SetEnabled(true);
  }
  d->cluster_ = std::make_unique<Cluster>(graph, &d->registry_,
                                          SystemClock::Global(), options);
  Status status = d->cluster_->Start();
  if (!status.ok()) return status;

  net::NetServer::Options server_options;
  server_options.tenants = &d->tenants_;
  server_options.recorder = &d->recorder_;
  if (traced) server_options.metrics = &d->metrics_;
  d->server_ = std::make_unique<net::NetServer>(d->cluster_.get(),
                                                server_options);
  status = d->server_->Start();
  if (!status.ok()) return status;
  return d;
}

size_t Deployment::shard_workers_total() const {
  return cluster_->options().num_shards * cluster_->options().shard_workers;
}

}  // namespace bouncer::perfbench
