#ifndef BOUNCER_GRAPH_CLUSTER_H_
#define BOUNCER_GRAPH_CLUSTER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/graph/graph_store.h"
#include "src/graph/shard_engine.h"
#include "src/server/metrics_collector.h"
#include "src/server/stage.h"
#include "src/util/mpmc_queue.h"
#include "src/util/object_pool.h"
#include "src/util/rng.h"

namespace bouncer::graph {

/// The eleven graph operations standing in for the anonymized production
/// query types QT1..QT11 of paper §5.4, sorted by cost ascending. Each
/// maps to one or more broker→shard communication rounds.
enum class GraphOp : uint32_t {
  kDegree = 0,             ///< QT1: degree of one vertex.
  kNeighbors = 1,          ///< QT2: capped adjacency fetch.
  kDegreeByExternalId = 2, ///< QT3: hash-index lookup + degree.
  kCommonNeighbors = 3,    ///< QT4: adjacency intersection of two vertices.
  kNeighborDegreeSum = 4,  ///< QT5: 1-hop expand + degree round.
  kTopKNeighbors = 5,      ///< QT6: 1-hop expand + degree round + top-k.
  kTwoHopSample = 6,       ///< QT7: sampled 2-hop expansion.
  kTwoHopCount = 7,        ///< QT8: capped 2-hop expansion count.
  kTwoHopDedup = 8,        ///< QT9: larger 2-hop expansion + dedup + degrees.
  kDistance3 = 9,          ///< QT10: bounded BFS, depth <= 3.
  kDistance4 = 10,         ///< QT11: bounded BFS, depth <= 4.
};

inline constexpr size_t kNumGraphOps = 11;

/// Parameters of one query submitted to the cluster.
struct GraphQuery {
  GraphOp op = GraphOp::kDegree;
  uint32_t source = 0;
  uint32_t target = 0;       ///< For 2-vertex ops (distance, intersection).
  uint64_t external_id = 0;  ///< For kDegreeByExternalId.
};

/// Scalar answer of a graph query.
struct GraphQueryResult {
  uint64_t value = 0;  ///< Degree / count / distance (0 = unreachable).
  bool ok = true;      ///< False when a shard shed or rejected a subquery.
  /// RejectReason wire code of the first failed subquery (kShard* family)
  /// when !ok; 0 otherwise.
  uint8_t fail_reason = 0;
};

/// An in-process two-tier LIquid-like cluster (paper §5.1, Fig. 5):
/// broker stages receive typed client queries and answer them through
/// rounds of sub-queries to shard stages; every stage runs the admission-
/// control framework of §3. In the paper's evaluation setup the brokers
/// run the policy under test while the shards run AcceptFraction (§5.4);
/// both policies are configurable here.
///
/// The graph is shared read-only; shard s serves vertices v with
/// v % num_shards == s, so the data distribution of a real cluster is
/// modeled without duplicating memory.
class Cluster {
 public:
  struct Options {
    size_t num_brokers = 1;
    size_t broker_workers = 16;  ///< P per broker (brokers mostly wait).
    size_t num_shards = 4;
    size_t shard_workers = 2;    ///< CPU-bound workers per shard.
    uint32_t work_per_edge = 24; ///< ShardEngine calibration knob.
    size_t broker_queue_capacity = 100'000;
    size_t shard_queue_capacity = 100'000;
    PolicyConfig broker_policy;  ///< Policy under test (paper varies this).
    PolicyConfig shard_policy;   ///< Paper §5.4: AcceptFraction.
    /// Optional live update feed layered over the snapshot (paper §5.1);
    /// must outlive the cluster.
    const EdgeUpdateLog* update_log = nullptr;
    /// Run every broker and shard stage with one global run queue
    /// (Stage::Options::num_run_queues = 1, the pre-sharding execution
    /// core) instead of per-worker run-queue shards with stealing: the
    /// oracle the sharded core is checked against. Query results are
    /// identical either way.
    bool force_single_queue = false;
    /// Optional sink for shard-stage subquery outcomes (Points 1–3 per
    /// subquery batch, one per shard per round); must outlive the
    /// cluster. Lets studies report shard-side utilization, not just
    /// broker metrics.
    server::MetricsCollector* shard_metrics = nullptr;
    /// When set, every broker/shard stage publishes its counters and
    /// estimate-error histograms here (under "stage.broker-N.*" /
    /// "stage.shard-N.*"); must outlive the cluster. Optional.
    stats::MetricRegistry* metrics = nullptr;
    /// Flight recorder for sampled request traces (scatter/gather events
    /// plus the per-stage lifecycle); defaults to
    /// stats::FlightRecorder::Global() when tracing is compiled in.
    stats::FlightRecorder* recorder = nullptr;
    /// Tenant interner shared by every broker/shard stage; must outlive
    /// the cluster. Required when a stage policy is tenant-aware
    /// (PolicyConfig::tenant_fair); null runs the cluster single-tenant.
    const TenantRegistry* tenants = nullptr;
  };

  using CompletionFn =
      std::function<void(const server::WorkItem&, server::Outcome,
                         const GraphQueryResult&)>;

  /// `graph`, `registry` and `clock` must outlive the cluster. The
  /// registry must hold one type per GraphOp, registered in op order
  /// (QueryTypeId = op index + 1); MakeRegistry() builds one.
  Cluster(const GraphStore* graph, const QueryTypeRegistry* registry,
          Clock* clock, const Options& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts shard stages then broker stages.
  Status Start();
  /// Stops brokers first (no new fan-out), then shards.
  void Stop();

  /// Submits a query to broker `query.source % num_brokers`. `done` runs
  /// exactly once. Returns the admission outcome at the broker (early
  /// rejection happens here, before the broker queue — paper §2). `id`
  /// is the correlation id stamped on the WorkItem; it keys the flight
  /// recorder's deterministic sampling (0 = untraceable).
  server::Outcome Submit(const GraphQuery& query, Nanos deadline,
                         CompletionFn done, uint64_t id = 0,
                         TenantId tenant = kDefaultTenant);

  /// One request of a SubmitBatch() call. `done` runs exactly once, same
  /// contract as Submit().
  struct BatchRequest {
    GraphQuery query;
    Nanos deadline = 0;
    CompletionFn done;
    uint64_t id = 0;     ///< Correlation id for tracing (0 = none).
    bool traced = false; ///< Upstream sampling decision (net parse point).
    /// Dense tenant index the broker admission decision is charged to
    /// and every shard subquery inherits.
    TenantId tenant = kDefaultTenant;
  };

  /// Submits a whole batch — every request parsed from one network
  /// wakeup — through the brokers' admission policies in one pass per
  /// broker (Stage::SubmitBatch: one clock read, one ring reservation,
  /// one wakeup episode per broker instead of per query). Requests keep
  /// their relative order within each broker. Rejections and sheds
  /// complete synchronously inside the call; returns the aggregated
  /// per-batch outcome counts. `requests` is scratch: `done` callbacks
  /// are moved from.
  ///
  /// `submitter` is forwarded to Stage::SubmitBatch as the run-queue
  /// affinity hint: the network layer passes its event-loop id so each
  /// loop keeps feeding the same broker run queue;
  /// Stage::kNoSubmitterHint uses the calling thread's stripe token.
  server::Stage::BatchResult SubmitBatch(
      std::span<BatchRequest> requests,
      uint32_t submitter = server::Stage::kNoSubmitterHint);

  /// Registry id for a graph op.
  static QueryTypeId TypeIdFor(GraphOp op) {
    return static_cast<QueryTypeId>(op) + 1;
  }

  /// Builds a registry with types "QT1".."QT11" (op order) all carrying
  /// `slo`; the default type gets `slo` too.
  static QueryTypeRegistry MakeRegistry(const Slo& slo);

  /// Draws a random, valid query for `op` over `graph`.
  static GraphQuery SampleQuery(GraphOp op, const GraphStore& graph,
                                Rng& rng);

  server::Stage* broker(size_t i) { return brokers_.at(i).get(); }
  server::Stage* shard(size_t i) { return shards_.at(i).get(); }
  size_t num_brokers() const { return brokers_.size(); }
  size_t num_shards() const { return shards_.size(); }
  const Options& options() const { return options_; }
  /// Total subqueries shards rejected or shed (broker-observed).
  uint64_t shard_failures() const {
    return shard_failures_.load(std::memory_order_relaxed);
  }
  /// Times a gathering thread found every shard queue dry with its round
  /// still in flight and slept; published as "cluster.gather_parks".
  uint64_t gather_parks() const {
    return gather_parks_.load(std::memory_order_relaxed);
  }

 private:
  struct QueryContext;

  /// The broker WorkItem of one client query: a pooled QueryContext
  /// carries `query` and `done`, and the completion callback returns it
  /// to the pool. Shared by Submit() and SubmitBatch().
  server::WorkItem MakeQueryItem(const GraphQuery& query, Nanos deadline,
                                 CompletionFn done, uint64_t id,
                                 TenantId tenant);
  void ExecuteQuery(server::WorkItem& item);
  /// Scatter `vertices` to their shards as one `kind` subquery batch per
  /// shard (admission is charged once per round per shard) and gather
  /// results, appending degrees to `degrees_out` when non-null. Gathered
  /// neighbours stay in the calling worker's per-shard result buffers,
  /// where Expand() reads them. Returns false if any subquery failed.
  bool ScatterGather(std::span<const uint32_t> vertices, Subquery::Kind kind,
                     uint32_t limit_per_vertex, QueryTypeId type,
                     Nanos deadline, std::vector<uint32_t>* degrees_out);
  bool FetchDegrees(std::span<const uint32_t> vertices, QueryTypeId type,
                    Nanos deadline, std::vector<uint32_t>* degrees);
  /// Unique neighbours of `vertices` (at most `cap_per_vertex` each),
  /// unordered, or the `total_cap` smallest when there are more.
  bool Expand(std::span<const uint32_t> vertices, uint32_t cap_per_vertex,
              size_t total_cap, QueryTypeId type, Nanos deadline,
              std::vector<uint32_t>* unique_neighbors);
  uint64_t RunBfs(const GraphQuery& query, uint32_t max_depth,
                  size_t frontier_cap, QueryTypeId type, Nanos deadline,
                  bool* ok);
  /// The calling thread's gather lot: cached in its scratch for the
  /// current lot epoch, otherwise the next free lot. Only this cluster's
  /// broker workers gather, so each takes one lot per epoch.
  ParkingLot* GatherLot();

  const GraphStore* graph_;
  const QueryTypeRegistry* registry_;
  Clock* clock_;
  Options options_;

  std::vector<std::unique_ptr<ShardEngine>> engines_;
  std::vector<std::unique_ptr<server::Stage>> shards_;
  std::vector<std::unique_ptr<server::Stage>> brokers_;
  stats::FlightRecorder* recorder_ = nullptr;
  std::atomic<uint64_t> shard_failures_{0};
  std::atomic<uint64_t> gather_parks_{0};
  std::atomic<uint64_t> next_broker_{0};
  /// One eventcount per gathering thread: a round's countdown carries
  /// its gatherer's lot, and the round's last completion wakes that lot
  /// alone. The cluster owns the lots and frees none before it dies, so
  /// a completion racing a worker shutdown never touches freed memory.
  /// Stop() hands every lot back (a new epoch makes each thread's cached
  /// lot stale), so a Stop()/Start() cycle reuses them instead of
  /// growing the set.
  std::mutex lots_mu_;
  std::deque<ParkingLot> lots_;  ///< Guarded by lots_mu_; never shrinks.
  /// lots_[0, lots_taken_) belong to the threads that have gathered
  /// since the last Stop(), one each; guarded by lots_mu_.
  size_t lots_taken_ = 0;
  /// Process-unique id of the current lot assignment; a thread's cached
  /// lot is valid only while its recorded epoch matches.
  std::atomic<uint64_t> lot_epoch_;
  uint64_t collector_handle_ = 0;
  /// Recycles per-query contexts so Submit() allocates nothing in steady
  /// state (the completion callback returns the context).
  ObjectPool<QueryContext> context_pool_;
  Status init_status_;
};

}  // namespace bouncer::graph

#endif  // BOUNCER_GRAPH_CLUSTER_H_
