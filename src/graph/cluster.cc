#include "src/graph/cluster.h"

#include <algorithm>

#include "src/util/dense_id_set.h"

namespace bouncer::graph {

using server::Outcome;
using server::Stage;
using server::WorkItem;

struct Cluster::QueryContext {
  GraphQuery query;
  GraphQueryResult result;
  CompletionFn done;
};

namespace {

/// Countdown for one broker->shards scatter. Lives in the broker worker's
/// scratch; the last shard completion's decrement is its last access (a
/// completion reads `gate` first and wakes that cluster-owned lot after
/// the decrement), so the gathering worker may move on the instant
/// `pending` reads zero.
struct ScatterCountdown {
  /// The gathering thread's lot; set before the round's first submit.
  ParkingLot* gate = nullptr;
  std::atomic<uint32_t> pending{0};
  std::atomic<bool> failed{false};
  /// RejectReason wire code of the first failure (first writer wins).
  std::atomic<uint8_t> fail_reason{0};
};

/// Maps a shard-stage failure to the kShard* reason the client sees.
uint8_t ShardFailReason(const WorkItem& w, Outcome outcome) {
  switch (w.reject_reason) {
    case RejectReason::kPolicy:
      return static_cast<uint8_t>(RejectReason::kShardPolicy);
    case RejectReason::kQueueFull:
      return static_cast<uint8_t>(RejectReason::kShardQueueFull);
    case RejectReason::kExpired:
      return static_cast<uint8_t>(RejectReason::kShardExpired);
    default:
      break;
  }
  switch (outcome) {
    case Outcome::kRejected:
      return static_cast<uint8_t>(RejectReason::kShardPolicy);
    case Outcome::kExpired:
      return static_cast<uint8_t>(RejectReason::kShardExpired);
    default:
      return static_cast<uint8_t>(RejectReason::kShardQueueFull);
  }
}

/// One in-flight subquery batch, the layout the shard handler executes
/// against; lives in the broker worker's scratch until the round's
/// countdown reaches zero, so raw pointers into it stay valid.
struct ShardTask {
  Subquery subquery;
  SubqueryResult result;
  ScatterCountdown* countdown = nullptr;
};

/// Per-broker-worker reusable buffers: the full multi-round execution of
/// a query runs out of these, so the steady state performs no heap
/// allocation (vectors are clear()ed, never freed; capacity is retained
/// across rounds and queries). Broker workers are dedicated
/// threads, so thread-local storage is per-worker by construction; no
/// round outlives its ScatterGather call, so nothing here escapes the
/// owning thread.
struct WorkerScratch {
  // Query-level trace/failure state, stamped from the WorkItem at
  // ExecuteQuery entry so the scatter rounds (which only see vertex
  // spans) can emit correlated events and report the failing reason.
  uint64_t trace_id = 0;
  bool traced = false;
  TenantId tenant = kDefaultTenant;
  /// Reason of the query's first failed round; nonzero (every kShard*
  /// code is) marks the query failed, so later rounds skip the scatter.
  uint8_t fail_reason = 0;
  // Round-level state.
  std::vector<ShardTask> tasks;  ///< One slot per shard.
  ScatterCountdown countdown;
  /// This thread's gather lot and the Cluster::lot_epoch_ it belongs to
  /// (0 = none; epochs start at 1).
  ParkingLot* lot = nullptr;
  uint64_t lot_epoch = 0;
  // Query-level operand buffers.
  std::vector<uint32_t> degrees;
  std::vector<uint32_t> hop1;
  std::vector<uint32_t> hop2;
  std::vector<uint32_t> neighbors_a;
  std::vector<uint32_t> neighbors_b;
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> next;
  // Bitset membership: gathered-neighbour dedup (also QT4's
  // intersection) and BFS visited vertices.
  DenseIdSet dedup;
  DenseIdSet bfs_visited;
};

thread_local WorkerScratch tls_scratch;

/// Lot epochs are unique across every cluster of the process, so a
/// scratch's cached lot never matches a later cluster built at the same
/// address.
uint64_t NextLotEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Cluster::Cluster(const GraphStore* graph, const QueryTypeRegistry* registry,
                 Clock* clock, const Options& options)
    : graph_(graph),
      registry_(registry),
      clock_(clock),
      options_(options),
      lot_epoch_(NextLotEpoch()) {
  const auto num_shards = static_cast<uint32_t>(
      options_.num_shards == 0 ? 1 : options_.num_shards);
  options_.num_shards = num_shards;
  if (options_.num_brokers == 0) options_.num_brokers = 1;
  if constexpr (stats::kTraceCompiledIn) {
    recorder_ = options_.recorder != nullptr
                    ? options_.recorder
                    : &stats::FlightRecorder::Global();
  }

  for (uint32_t s = 0; s < num_shards; ++s) {
    engines_.push_back(std::make_unique<ShardEngine>(
        graph_, s, num_shards, options_.work_per_edge,
        options_.update_log));
    ShardEngine* engine = engines_.back().get();
    Stage::Options stage_options;
    stage_options.name = "shard-" + std::to_string(s);
    stage_options.num_workers = options_.shard_workers;
    stage_options.queue_capacity = options_.shard_queue_capacity;
    if (options_.force_single_queue) stage_options.num_run_queues = 1;
    stage_options.metrics = options_.metrics;
    stage_options.recorder = options_.recorder;
    stage_options.tenants = options_.tenants;
    const PolicyConfig policy = options_.shard_policy;
    shards_.push_back(std::make_unique<Stage>(
        stage_options, registry_, clock_,
        [&policy](const PolicyContext& context) {
          return CreatePolicy(policy, context);
        },
        [engine](WorkItem& item) {
          auto* task = static_cast<ShardTask*>(item.user);
          engine->Execute(task->subquery, &task->result);
        }));
    if (!shards_.back()->init_status().ok()) {
      init_status_ = shards_.back()->init_status();
    }
  }

  for (size_t b = 0; b < options_.num_brokers; ++b) {
    Stage::Options stage_options;
    stage_options.name = "broker-" + std::to_string(b);
    stage_options.num_workers = options_.broker_workers;
    stage_options.queue_capacity = options_.broker_queue_capacity;
    if (options_.force_single_queue) stage_options.num_run_queues = 1;
    stage_options.metrics = options_.metrics;
    stage_options.recorder = options_.recorder;
    stage_options.tenants = options_.tenants;
    const PolicyConfig policy = options_.broker_policy;
    brokers_.push_back(std::make_unique<Stage>(
        stage_options, registry_, clock_,
        [&policy](const PolicyContext& context) {
          return CreatePolicy(policy, context);
        },
        [this](WorkItem& item) { ExecuteQuery(item); }));
    if (!brokers_.back()->init_status().ok()) {
      init_status_ = brokers_.back()->init_status();
    }
  }
  if (options_.metrics != nullptr) {
    collector_handle_ =
        options_.metrics->AddCollector([this](stats::MetricSink& sink) {
          sink.AddCounter("cluster.gather_parks", gather_parks());
        });
  }
}

Cluster::~Cluster() {
  if (collector_handle_ != 0) {
    options_.metrics->RemoveCollector(collector_handle_);
  }
  Stop();
}

Status Cluster::Start() {
  if (!init_status_.ok()) return init_status_;
  for (auto& shard : shards_) {
    if (Status s = shard->Start(); !s.ok()) return s;
  }
  for (auto& broker : brokers_) {
    if (Status s = broker->Start(); !s.ok()) return s;
  }
  return Status::OK();
}

void Cluster::Stop() {
  for (auto& broker : brokers_) broker->Stop(false);
  for (auto& shard : shards_) shard->Stop(false);
  // Every gathering worker has exited and every round has completed:
  // hand the lots back for the next Start()'s threads.
  std::lock_guard<std::mutex> lock(lots_mu_);
  lots_taken_ = 0;
  lot_epoch_.store(NextLotEpoch(), std::memory_order_relaxed);
}

ParkingLot* Cluster::GatherLot() {
  WorkerScratch& scratch = tls_scratch;
  if (scratch.lot_epoch == lot_epoch_.load(std::memory_order_relaxed)) {
    return scratch.lot;
  }
  std::lock_guard<std::mutex> lock(lots_mu_);
  if (lots_taken_ == lots_.size()) lots_.emplace_back();
  scratch.lot = &lots_[lots_taken_++];
  scratch.lot_epoch = lot_epoch_.load(std::memory_order_relaxed);
  return scratch.lot;
}

QueryTypeRegistry Cluster::MakeRegistry(const Slo& slo) {
  QueryTypeRegistry registry(slo);
  for (size_t i = 0; i < kNumGraphOps; ++i) {
    (void)registry.Register("QT" + std::to_string(i + 1), slo);
  }
  return registry;
}

GraphQuery Cluster::SampleQuery(GraphOp op, const GraphStore& graph,
                                Rng& rng) {
  GraphQuery q;
  q.op = op;
  const uint32_t n = std::max<uint32_t>(graph.num_vertices(), 1);
  q.source = static_cast<uint32_t>(rng.NextBounded(n));
  q.target = static_cast<uint32_t>(rng.NextBounded(n));
  if (op == GraphOp::kDegreeByExternalId) {
    q.external_id = graph.ExternalId(q.source);
  }
  return q;
}

WorkItem Cluster::MakeQueryItem(const GraphQuery& query, Nanos deadline,
                                CompletionFn done, uint64_t id,
                                TenantId tenant) {
  QueryContext* context = context_pool_.Acquire();
  context->query = query;
  context->result = GraphQueryResult{};
  context->done = std::move(done);

  WorkItem item;
  item.type = TypeIdFor(query.op);
  item.tenant = tenant;
  item.id = id;
  item.deadline = deadline;
  item.user = context;
  item.on_complete = [this](const WorkItem& w, Outcome outcome) {
    auto* ctx = static_cast<QueryContext*>(w.user);
    if (ctx->done) ctx->done(w, outcome, ctx->result);
    ctx->done = nullptr;  // Drop caller resources before pooling.
    context_pool_.Release(ctx);
  };
  return item;
}

Outcome Cluster::Submit(const GraphQuery& query, Nanos deadline,
                        CompletionFn done, uint64_t id, TenantId tenant) {
  const size_t broker_index =
      next_broker_.fetch_add(1, std::memory_order_relaxed) % brokers_.size();
  return brokers_[broker_index]->Submit(
      MakeQueryItem(query, deadline, std::move(done), id, tenant));
}

server::Stage::BatchResult Cluster::SubmitBatch(
    std::span<BatchRequest> requests, uint32_t submitter) {
  server::Stage::BatchResult total;
  if (requests.empty()) return total;

  // Build the WorkItems into per-broker scratch (reused across calls, so
  // steady state allocates nothing), then hand each broker its block in
  // one Stage::SubmitBatch. Requests spread round-robin across brokers;
  // each broker sees its share in arrival order.
  thread_local std::vector<std::vector<WorkItem>> tls_broker_items;
  std::vector<std::vector<WorkItem>>& broker_items = tls_broker_items;
  const size_t num_brokers = brokers_.size();
  if (broker_items.size() < num_brokers) broker_items.resize(num_brokers);
  for (size_t b = 0; b < num_brokers; ++b) broker_items[b].clear();

  const size_t start =
      num_brokers == 1
          ? 0
          : next_broker_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < requests.size(); ++i) {
    BatchRequest& request = requests[i];
    WorkItem item = MakeQueryItem(request.query, request.deadline,
                                  std::move(request.done), request.id,
                                  request.tenant);
    item.traced = request.traced;
    broker_items[(start + i) % num_brokers].push_back(std::move(item));
  }
  for (size_t b = 0; b < num_brokers; ++b) {
    if (broker_items[b].empty()) continue;
    const server::Stage::BatchResult r =
        brokers_[b]->SubmitBatch(broker_items[b], submitter);
    total.admitted += r.admitted;
    total.rejected += r.rejected;
    total.shedded += r.shedded;
    broker_items[b].clear();
  }
  return total;
}

bool Cluster::ScatterGather(std::span<const uint32_t> vertices,
                            Subquery::Kind kind, uint32_t limit_per_vertex,
                            QueryTypeId type, Nanos deadline,
                            std::vector<uint32_t>* degrees_out) {
  WorkerScratch& scratch = tls_scratch;
  // Fail fast: a query whose earlier round failed answers !ok whatever
  // the later rounds return, so they scatter nothing.
  if (scratch.fail_reason != 0) return false;
  const size_t num_shards = shards_.size();
  if (scratch.tasks.size() < num_shards) scratch.tasks.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardTask& task = scratch.tasks[s];
    task.subquery.vertices.clear();
    task.result.degrees.clear();
    task.result.neighbors.clear();
    task.result.checksum = 0;
  }
  for (const uint32_t v : vertices) {
    scratch.tasks[v % num_shards].subquery.vertices.push_back(v);
  }

  // The last non-empty shard's subquery is the gatherer's own share: it
  // goes out last, after its siblings have woken their shards' workers,
  // so a multi-shard round can run on several threads at once.
  uint32_t active = 0;
  size_t own = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (scratch.tasks[s].subquery.vertices.empty()) continue;
    ++active;
    own = s;
  }
  if (active == 0) return true;

  // The countdown is preloaded with the full fan-out before the first
  // Submit: completion callbacks may fire synchronously inside Submit
  // (early rejection, shed on a full ring) or inline (single-shard fast
  // path), and must never see a count that another shard's submission
  // has not yet been added to.
  ScatterCountdown& countdown = scratch.countdown;
  countdown.gate = GatherLot();
  countdown.pending.store(active, std::memory_order_relaxed);
  countdown.failed.store(false, std::memory_order_relaxed);
  countdown.fail_reason.store(0, std::memory_order_relaxed);

  for (size_t s = 0; s < num_shards; ++s) {
    ShardTask& task = scratch.tasks[s];
    if (task.subquery.vertices.empty()) continue;
    if (countdown.failed.load(std::memory_order_relaxed)) {
      // A sibling already failed, usually refused synchronously inside
      // its Submit: the round is lost, so spend no shard work on it.
      // Only this thread can still be waiting on the countdown.
      countdown.pending.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    task.subquery.kind = kind;
    task.subquery.limit_per_vertex = limit_per_vertex;
    task.countdown = &countdown;

    WorkItem item;
    item.type = type;
    item.tenant = scratch.tenant;
    item.id = scratch.trace_id;
    item.traced = scratch.traced;
    item.deadline = deadline;
    item.user = &task;
    if constexpr (stats::kTraceCompiledIn) {
      if (scratch.traced) {
        stats::TraceEvent event;
        event.ts = clock_->Now();
        event.id = scratch.trace_id;
        event.arg0 =
            static_cast<int64_t>(task.subquery.vertices.size());
        event.loc = static_cast<uint32_t>(s);
        event.type = static_cast<uint16_t>(type);
        event.tenant = scratch.tenant;
        event.kind =
            static_cast<uint8_t>(stats::TraceEventKind::kShardScatter);
        recorder_->Record(event);
      }
    }
    item.on_complete = [this](const WorkItem& w, Outcome outcome) {
      ScatterCountdown* countdown = static_cast<ShardTask*>(w.user)->countdown;
      // Read before the decrement: once `pending` hits zero the gatherer
      // may reuse the countdown for its next round.
      ParkingLot* gate = countdown->gate;
      if (outcome != Outcome::kCompleted) {
        shard_failures_.fetch_add(1, std::memory_order_relaxed);
        countdown->failed.store(true, std::memory_order_relaxed);
        uint8_t expected = 0;
        countdown->fail_reason.compare_exchange_strong(
            expected, ShardFailReason(w, outcome), std::memory_order_relaxed);
      }
      if (options_.shard_metrics != nullptr) {
        options_.shard_metrics->Record(w, outcome);
      }
      // acq_rel: the decrement publishes this shard's result writes to
      // the gatherer's acquire load, and the RMW chain extends the
      // release sequence across shards. This is the countdown's last
      // access; the wake-up goes to the gatherer's cluster-owned lot.
      if (countdown->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        gate->NotifyAll();
      }
    };
    if (s == own) {
      // The gatherer's own share: when the shard's queue is
      // empty-and-admitting it runs right here on the broker worker,
      // skipping both thread hand-offs (admission accounting still lands
      // on the shard); otherwise it is queued without waking a shard
      // worker, because the gather below helps until it has run.
      shards_[s]->SubmitInline(std::move(item));
    } else {
      shards_[s]->Submit(std::move(item));
    }
  }

  // Gather: lend this broker worker's CPU to the shard queues while the
  // round is in flight (work-helping). Liveness invariant: the own share
  // may sit in a queue with no worker woken for it, so the gatherer
  // parks only after a full pass finds every shard queue empty, and
  // re-checks the queues under its lot's mutex. An empty pass means some
  // thread popped that share and will complete it. Parked, it waits for
  // its round's last completion to wake its lot; the 10 ms ParkingLot
  // backstop re-checks the countdown, so a missed wake-up costs bounded
  // latency, never a hang.
  while (countdown.pending.load(std::memory_order_acquire) != 0) {
    bool helped = false;
    for (size_t s = 0; s < num_shards; ++s) {
      if (countdown.pending.load(std::memory_order_acquire) == 0) break;
      if (shards_[s]->TryRunOne()) helped = true;
    }
    if (helped) continue;
    const bool parked = countdown.gate->ParkUnless([this, &countdown] {
      if (countdown.pending.load(std::memory_order_acquire) == 0) return true;
      for (const auto& shard : shards_) {
        if (shard->AnyQueueNonEmpty()) return true;
      }
      return false;
    });
    if (parked) gather_parks_.fetch_add(1, std::memory_order_relaxed);
  }

  const bool ok = !countdown.failed.load(std::memory_order_relaxed);
  if (ok && degrees_out != nullptr) {
    size_t total = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      total += scratch.tasks[s].result.degrees.size();
    }
    degrees_out->reserve(degrees_out->size() + total);
    for (size_t s = 0; s < num_shards; ++s) {
      const auto& d = scratch.tasks[s].result.degrees;
      degrees_out->insert(degrees_out->end(), d.begin(), d.end());
    }
  }
  if (!ok) {
    scratch.fail_reason = countdown.fail_reason.load(std::memory_order_relaxed);
  }
  if constexpr (stats::kTraceCompiledIn) {
    if (scratch.traced) {
      stats::TraceEvent event;
      event.ts = clock_->Now();
      event.id = scratch.trace_id;
      event.arg0 = static_cast<int64_t>(active);
      event.type = static_cast<uint16_t>(type);
      event.tenant = scratch.tenant;
      event.kind = static_cast<uint8_t>(stats::TraceEventKind::kShardGather);
      event.reason = countdown.fail_reason.load(std::memory_order_relaxed);
      recorder_->Record(event);
    }
  }
  return ok;
}

bool Cluster::FetchDegrees(std::span<const uint32_t> vertices,
                           QueryTypeId type, Nanos deadline,
                           std::vector<uint32_t>* degrees) {
  degrees->clear();
  return ScatterGather(vertices, Subquery::Kind::kDegrees, 0, type, deadline,
                       degrees);
}

bool Cluster::Expand(std::span<const uint32_t> vertices,
                     uint32_t cap_per_vertex, size_t total_cap,
                     QueryTypeId type, Nanos deadline,
                     std::vector<uint32_t>* unique_neighbors) {
  unique_neighbors->clear();
  if (!ScatterGather(vertices, Subquery::Kind::kExpand, cap_per_vertex, type,
                     deadline, nullptr)) {
    return false;
  }
  // Dedup straight out of the shards' result buffers into the worker's
  // bitset. The result is the unique SET of gathered neighbours: in
  // unspecified order, or the smallest total_cap ids when the cap bites.
  // Every consumer is order-independent (counts, degree sums, membership
  // tests, next-hop vertex sets).
  DenseIdSet& dedup = tls_scratch.dedup;
  dedup.Reset(graph_->num_vertices());
  for (size_t s = 0; s < shards_.size(); ++s) {
    dedup.InsertAll(tls_scratch.tasks[s].result.neighbors);
  }
  dedup.AppendTo(total_cap, unique_neighbors);
  return true;
}

uint64_t Cluster::RunBfs(const GraphQuery& query, uint32_t max_depth,
                         size_t frontier_cap, QueryTypeId type,
                         Nanos deadline, bool* ok) {
  if (query.source == query.target) return 0;
  WorkerScratch& scratch = tls_scratch;
  DenseIdSet& visited = scratch.bfs_visited;
  visited.Reset(graph_->num_vertices());
  visited.Insert(query.source);
  std::vector<uint32_t>& frontier = scratch.frontier;
  std::vector<uint32_t>& next = scratch.next;
  frontier.clear();
  frontier.push_back(query.source);
  for (uint32_t depth = 1; depth <= max_depth; ++depth) {
    if (!Expand(frontier, 64, frontier_cap, type, deadline, &next)) {
      *ok = false;
      return 0;
    }
    // `next` is a unique set (smallest frontier_cap on overflow) in
    // unspecified order: membership is a linear scan, and the
    // visited-filtered frontier below is a vertex set whose order the
    // next round doesn't observe.
    if (std::find(next.begin(), next.end(), query.target) != next.end()) {
      return depth;
    }
    frontier.resize(next.size());
    size_t unvisited = 0;
    for (const uint32_t u : next) {
      frontier[unvisited] = u;
      unvisited += visited.Insert(u);
    }
    frontier.resize(unvisited);
    if (frontier.empty()) return 0;  // Exhausted within the budget.
  }
  return 0;  // Not reachable within max_depth.
}

void Cluster::ExecuteQuery(WorkItem& item) {
  auto* context = static_cast<QueryContext*>(item.user);
  const GraphQuery& q = context->query;
  GraphQueryResult& r = context->result;
  const QueryTypeId type = item.type;
  const Nanos deadline = item.deadline;
  WorkerScratch& scratch = tls_scratch;
  // The scatter rounds below only see vertex spans; park the query's
  // trace identity and a slot for the first subquery failure in the
  // worker's scratch for them.
  scratch.trace_id = item.id;
  scratch.traced = item.traced;
  scratch.tenant = item.tenant;
  scratch.fail_reason = 0;

  switch (q.op) {
    case GraphOp::kDegree: {
      std::vector<uint32_t>& degrees = scratch.degrees;
      const uint32_t v[] = {q.source};
      r.ok = FetchDegrees(v, type, deadline, &degrees);
      for (uint32_t d : degrees) r.value += d;
      break;
    }
    case GraphOp::kNeighbors: {
      std::vector<uint32_t>& neighbors = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 64, 64, type, deadline, &neighbors);
      r.value = neighbors.size();
      break;
    }
    case GraphOp::kDegreeByExternalId: {
      const auto vertex = graph_->FindByExternalId(q.external_id);
      if (!vertex.ok()) {
        r.value = 0;
        break;
      }
      std::vector<uint32_t>& degrees = scratch.degrees;
      const uint32_t v[] = {*vertex};
      r.ok = FetchDegrees(v, type, deadline, &degrees);
      for (uint32_t d : degrees) r.value += d;
      break;
    }
    case GraphOp::kCommonNeighbors: {
      std::vector<uint32_t>& a = scratch.neighbors_a;
      std::vector<uint32_t>& b = scratch.neighbors_b;
      const uint32_t va[] = {q.source};
      const uint32_t vb[] = {q.target};
      r.ok = Expand(va, 512, 512, type, deadline, &a);
      r.ok = Expand(vb, 512, 512, type, deadline, &b) && r.ok;
      // Order-independent intersection count (both lists are unique
      // sets; Expand returns them unordered): mark one side in the
      // bitset, count the other side's hits.
      DenseIdSet& membership = scratch.dedup;
      membership.Reset(graph_->num_vertices());
      membership.InsertAll(a);
      uint64_t common = 0;
      for (const uint32_t u : b) common += membership.Contains(u);
      r.value = common;
      break;
    }
    case GraphOp::kNeighborDegreeSum: {
      std::vector<uint32_t>& neighbors = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 128, 128, type, deadline, &neighbors);
      std::vector<uint32_t>& degrees = scratch.degrees;
      r.ok = FetchDegrees(neighbors, type, deadline, &degrees) && r.ok;
      for (uint32_t d : degrees) r.value += d;
      break;
    }
    case GraphOp::kTopKNeighbors: {
      std::vector<uint32_t>& neighbors = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 256, 256, type, deadline, &neighbors);
      std::vector<uint32_t>& degrees = scratch.degrees;
      r.ok = FetchDegrees(neighbors, type, deadline, &degrees) && r.ok;
      std::sort(degrees.begin(), degrees.end(), std::greater<>());
      const size_t k = std::min<size_t>(10, degrees.size());
      for (size_t i = 0; i < k; ++i) r.value += degrees[i];
      break;
    }
    case GraphOp::kTwoHopSample: {
      std::vector<uint32_t>& hop1 = scratch.hop1;
      const uint32_t v[] = {q.source};
      // Samples the 32 smallest of the (at most 64) neighbour ids.
      r.ok = Expand(v, 64, 32, type, deadline, &hop1);
      std::vector<uint32_t>& hop2 = scratch.hop2;
      r.ok = Expand(hop1, 32, 1024, type, deadline, &hop2) && r.ok;
      r.value = hop2.size();
      break;
    }
    case GraphOp::kTwoHopCount: {
      std::vector<uint32_t>& hop1 = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 128, 128, type, deadline, &hop1);
      std::vector<uint32_t>& hop2 = scratch.hop2;
      r.ok = Expand(hop1, 64, 2048, type, deadline, &hop2) && r.ok;
      r.value = hop2.size();
      break;
    }
    case GraphOp::kTwoHopDedup: {
      std::vector<uint32_t>& hop1 = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 256, 256, type, deadline, &hop1);
      std::vector<uint32_t>& hop2 = scratch.hop2;
      r.ok = Expand(hop1, 64, 4096, type, deadline, &hop2) && r.ok;
      r.value = hop2.size();
      if (hop2.size() > 64) hop2.resize(64);
      std::vector<uint32_t>& degrees = scratch.degrees;
      r.ok = FetchDegrees(hop2, type, deadline, &degrees) && r.ok;
      break;
    }
    case GraphOp::kDistance3: {
      bool ok = true;
      r.value = RunBfs(q, 3, 2048, type, deadline, &ok);
      r.ok = ok;
      break;
    }
    case GraphOp::kDistance4: {
      bool ok = true;
      r.value = RunBfs(q, 4, 4096, type, deadline, &ok);
      r.ok = ok;
      break;
    }
  }
  if (!r.ok) {
    // A failed query's partial value is discarded, never sent.
    r.value = 0;
    r.fail_reason = scratch.fail_reason;
  }
}

}  // namespace bouncer::graph
