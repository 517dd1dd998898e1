#ifndef BOUNCER_SERVER_STAGE_H_
#define BOUNCER_SERVER_STAGE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/admission_policy.h"
#include "src/core/policy_factory.h"
#include "src/core/query_type_registry.h"
#include "src/core/queue_state.h"
#include "src/stats/flight_recorder.h"
#include "src/stats/metric_registry.h"
#include "src/util/clock.h"
#include "src/util/mpmc_queue.h"
#include "src/util/stripe.h"
#include "src/util/status.h"

namespace bouncer::server {

/// Terminal outcome of a work item submitted to a Stage.
enum class Outcome : uint8_t {
  kCompleted = 0,  ///< Admitted, processed, response produced.
  kRejected = 1,   ///< Dropped by the admission policy (early rejection).
  kExpired = 2,    ///< Admitted but its deadline passed while queued.
  kShedded = 3,    ///< Dropped because the bounded queue was full.
};

/// A unit of work flowing through a Stage: a typed query plus the
/// framework timestamps recorded at the metric points of paper Fig. 1.
struct WorkItem {
  QueryTypeId type = kDefaultQueryType;
  /// Dense tenant index (TenantRegistry); the second half of the
  /// admission key. Default-tenant for single-tenant callers.
  TenantId tenant = kDefaultTenant;
  uint64_t id = 0;        ///< Caller-chosen correlation id.
  Nanos deadline = 0;     ///< Absolute expiration time; 0 = none.
  void* user = nullptr;   ///< Opaque caller payload for the handler.

  Nanos arrival = 0;   ///< Set by Submit().
  Nanos enqueued = 0;  ///< Point 1 (accepted).
  Nanos dequeued = 0;  ///< Point 2.
  Nanos completed = 0; ///< Point 3.

  /// The policy's Eq. 2 queue-wait estimate at admission time, stamped by
  /// the stage for the estimate-vs-actual error histogram and the flight
  /// recorder; -1 when not computed (no observers attached).
  Nanos estimated_wait = -1;
  /// Why the item failed (kNone while in flight / on success). Mapped
  /// into the response frame's flags byte by the network layer.
  RejectReason reject_reason = RejectReason::kNone;
  /// Flight-recorder sampling decision, made once at the first admission
  /// point the item crosses and carried downstream (broker → shards).
  bool traced = false;

  /// The (type, tenant) pair policy entry points key on.
  WorkKey key() const { return WorkKey{type, tenant}; }

  /// Queue wait wt(Q); valid for kCompleted / kExpired.
  Nanos WaitTime() const { return dequeued - enqueued; }
  /// Processing time pt(Q); valid for kCompleted.
  Nanos ProcessingTime() const { return completed - dequeued; }
  /// Response time rt(Q) = wt + pt (ξ = 0, paper Eq. 1).
  Nanos ResponseTime() const { return completed - enqueued; }

  /// Completion callback, invoked exactly once for every submitted item
  /// — from Submit() for rejections, from a worker thread otherwise.
  std::function<void(const WorkItem&, Outcome)> on_complete;
};

/// Snapshot of a stage's aggregate counters: the per-run-queue padded
/// counter blocks summed at the counters() call.
struct StageCounters {
  uint64_t received = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t expired = 0;
  uint64_t shedded = 0;
  uint64_t completed = 0;
  /// Times a worker found every ring dry and slept (woken or timed out
  /// by the park backstop).
  uint64_t worker_parks = 0;
};

/// SEDA-like stage (paper Fig. 1): an admission policy guards bounded
/// FIFO run queues drained by a fixed pool of worker threads ("query
/// engine processes") that run a caller-provided handler. The stage
/// maintains the QueueState the policy reads and invokes the policy hooks
/// at metric Points 1–3.
///
/// Execution core (shared-nothing by default): the logical FIFO is
/// sharded into `num_run_queues` bounded MPMC rings. Every submitter has
/// a preferred ring — an explicit hint (the network loop id) or the
/// thread's stripe token — and every worker a home ring (worker index mod
/// ring count), so in steady state each core stays on its own ring's
/// cache lines. Idle workers steal: a worker that finds its home ring dry
/// scans the other rings in index order and pops from the first non-empty
/// one (FIFO-local, FIFO-steal — the admission model's Eq. 2 assumes FIFO
/// service, so steals take the oldest item of the victim ring, never the
/// newest). TryRunOne()/SubmitInline() helpers steal through the same
/// protocol. num_run_queues = 1 restores the single global FIFO (and a
/// single counter stripe everywhere downstream).
///
/// Thread-safety: Submit() may be called from any number of threads. The
/// submit and worker hot paths are lock-free: items flow through bounded
/// MPMC ring buffers, idle workers park on a condvar that producers only
/// touch when somebody actually sleeps, and queue occupancy is read from
/// the lock-free QueueState. The only mutex guards Start()/Stop()
/// lifecycle transitions.
///
/// Wake rule: Submit() and SubmitBatch() wake one parked worker per
/// queued item; SubmitInline() wakes none, because its caller helps
/// through TryRunOne() until its own item has run.
class Stage {
 public:
  /// SubmitBatch() submitter hint meaning "use the calling thread's
  /// stripe token".
  static constexpr uint32_t kNoSubmitterHint = UINT32_MAX;

  struct Options {
    std::string name = "stage";
    size_t num_workers = 4;       ///< P: level of task parallelism.
    /// Bound on the logical FIFO: every submit path spills into the
    /// other run queues before it sheds, so the stage sheds only once
    /// every ring is full. The bound is split evenly across the rings
    /// and each ring rounds its share up to a power of two, so the stage
    /// holds exactly this many items when the share is a power of two
    /// and up to about twice as many otherwise.
    size_t queue_capacity = 100'000;
    /// Number of run-queue shards; 0 = one per worker (capped at 64).
    /// More queues than workers is allowed — extra rings are drained via
    /// stealing (tests use this to pin items to a victim ring).
    size_t num_run_queues = 0;
    /// When set, the stage publishes its counters/queue length under
    /// "stage.<name>.*" and records the estimate-vs-actual queue-wait
    /// error into "stage.<name>.est_wait_err_{under,over}_ns". The
    /// registry must outlive the stage. Optional.
    stats::MetricRegistry* metrics = nullptr;
    /// Flight recorder for sampled request traces; defaults to
    /// stats::FlightRecorder::Global() when tracing is compiled in.
    stats::FlightRecorder* recorder = nullptr;
    /// Tenant interner shared across the deployment's stages. When set,
    /// the policy context carries it so tenant-aware policies
    /// (TenantFairPolicy) can resolve weights and walk per-tenant state.
    /// Must outlive the stage. Null runs the stage single-tenant.
    const TenantRegistry* tenants = nullptr;
  };

  /// The query engine: processes one admitted item (runs on a worker
  /// thread). The handler may block (e.g. a broker waiting on shards).
  using Handler = std::function<void(WorkItem&)>;

  /// Builds the policy against the stage's own QueueState once that
  /// exists. Returning an error leaves the stage unusable (init_status()).
  using PolicyFactory =
      std::function<StatusOr<std::unique_ptr<AdmissionPolicy>>(
          const PolicyContext&)>;

  /// `registry` and `clock` must outlive the stage. The policy is built
  /// by `policy_factory` against this stage's QueueState; check
  /// init_status() afterwards. Call Start() before submitting.
  Stage(const Options& options, const QueryTypeRegistry* registry,
        Clock* clock, const PolicyFactory& policy_factory, Handler handler);
  ~Stage();

  /// OK when the policy factory succeeded.
  const Status& init_status() const { return init_status_; }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Spawns the worker pool. Returns FailedPrecondition if already started.
  Status Start();

  /// Stops accepting work, drains or discards the queue, joins workers.
  /// Items still queued are completed with kShedded when `drain` is false.
  void Stop(bool drain = true);

  /// Runs the admission decision for `item` and either enqueues it (into
  /// the calling thread's preferred run queue) or completes it
  /// immediately with kRejected/kShedded. Returns the admission outcome
  /// (kCompleted means "admitted", delivery comes later via on_complete).
  Outcome Submit(WorkItem item);

  /// Per-batch outcome counts of SubmitBatch(). `admitted` items complete
  /// later via on_complete; `rejected`/`shedded` already completed inside
  /// the call.
  struct BatchResult {
    uint32_t admitted = 0;
    uint32_t rejected = 0;
    uint32_t shedded = 0;
  };

  /// Drains a whole batch of items through the admission policy in one
  /// pass — the per-wakeup submit path of the network front-end. Versus
  /// calling Submit() in a loop it takes one clock read, one enqueue-
  /// cursor reservation (a single CAS claims a contiguous ring block) and
  /// one worker-wakeup episode for the whole batch (waking at most one
  /// parked worker per admitted item) instead of one of each per item.
  /// The admission policy still decides every item individually and sees
  /// the exact same hook sequence (Decide, then OnRejected or OnEnqueued,
  /// with OnShedded when the bounded ring drops an accepted item), so
  /// per-type accounting is identical to the per-item path.
  ///
  /// `submitter` picks the run queue the whole batch lands in: a stable
  /// caller id (the network layer passes its event-loop id so each loop
  /// keeps feeding the same ring), or kNoSubmitterHint to use the calling
  /// thread's stripe token — both constant per calling thread, so one
  /// producer always targets one ring.
  ///
  /// Ordering: admitted items of one batch are pushed as one contiguous
  /// block of the preferred ring and popped from it in batch order with
  /// nothing interleaved inside the block; concurrent submits with the
  /// same preferred ring land wholly before or after it, and submits to
  /// other rings never split the block. Dequeue start-order preserves
  /// the block order even when stolen (steals pop the victim ring's
  /// head). With more than one consumer, items of one batch can be *in
  /// flight* concurrently — that was already true of the single FIFO.
  /// When the preferred ring lacks space, the remainder spills into the
  /// other rings in index order after it (wrapping), each taking the
  /// next FIFO slice of the batch as one contiguous block: a spilled
  /// batch is contiguous per ring, not across rings. Whatever no ring
  /// has room for is shed (per-item OnShedded + on_complete(kShedded),
  /// preserving order).
  ///
  /// Items are moved from; the span's storage is the caller's parse
  /// scratch and is reusable once this returns.
  BatchResult SubmitBatch(std::span<WorkItem> items,
                          uint32_t submitter = kNoSubmitterHint);

  /// Like Submit(), but when the item is admitted and the whole stage is
  /// idle (nothing queued anywhere, so nothing would be overtaken), the
  /// item is processed synchronously on the calling thread instead of
  /// being handed to a worker: Points 1–3 and on_complete all fire before
  /// this returns. Falls back to the queued path when the stage is busy
  /// or stopping. The admission policy sees the exact same hook sequence
  /// either way (the inline path is an enqueue immediately followed by a
  /// dequeue), so per-type accounting and utilization charges land on
  /// this stage's policy regardless of which thread lends the CPU. Used
  /// by the cluster's scatter-gather for the subquery the gathering
  /// broker runs itself, skipping a double thread hand-off.
  ///
  /// The queued fallback wakes no worker. The caller must therefore keep
  /// calling TryRunOne() until the item has completed, and may park only
  /// after a full pass finds every run queue empty (AnyQueueNonEmpty()
  /// re-checked under its parking lot): an empty pass means some thread
  /// has popped the item and will run it to completion. Without a
  /// helping caller, only an already-awake worker or a parked worker's
  /// 10 ms backstop would pick the item up.
  Outcome SubmitInline(WorkItem item);

  /// Pops and processes at most one queued item on the calling thread
  /// (Points 2–3 and on_complete run before this returns). Returns true
  /// when an item was run, false when every run queue was empty. Lets a
  /// thread blocked on work this stage owes it lend its CPU instead of
  /// parking (work-helping): the cluster's gather loop drains shard
  /// queues with this while its round is in flight. The helper steals
  /// through the same protocol as the workers — scan from the calling
  /// thread's preferred ring, pop the first non-empty ring's head — so
  /// per-ring FIFO order is preserved.
  bool TryRunOne();

  /// True when some run queue holds an item (cursor snapshot: also true
  /// for a slot a producer has claimed but not yet published, which a
  /// TryRunOne() pass can miss).
  bool AnyQueueNonEmpty() const;

  /// The stage's policy (for observability).
  AdmissionPolicy* policy() { return policy_.get(); }
  /// Live queue occupancy shared with the policy.
  const QueueState& queue_state() const { return queue_state_; }
  /// Sums the per-run-queue counter blocks into one snapshot.
  StageCounters counters() const;
  /// Current queue length.
  size_t QueueLength() const;
  /// Number of run-queue shards the stage resolved to.
  size_t num_run_queues() const { return queues_.size(); }
  /// Occupancy of one run queue (approximate; for tests/observability).
  size_t RunQueueLength(size_t queue) const;
  const Options& options() const { return options_; }

  /// Context to build a policy for this stage before construction.
  static PolicyContext MakeContext(const QueryTypeRegistry* registry,
                                   const QueueState* queue,
                                   size_t num_workers,
                                   size_t counter_stripes = 1,
                                   const TenantRegistry* tenants = nullptr) {
    return PolicyContext{registry, queue, num_workers, counter_stripes,
                         tenants};
  }

 private:
  /// Counter block owned by one run queue index; every thread writes the
  /// block of its home/preferred index so no two cores share a line.
  struct alignas(kCacheLineSize) QueueCounters {
    std::atomic<uint64_t> received{0};
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> expired{0};
    std::atomic<uint64_t> shedded{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> worker_parks{0};
  };
  struct RunQueue {
    explicit RunQueue(size_t capacity) : fifo(capacity) {}
    MpmcQueue<WorkItem> fifo;
    QueueCounters counters;
  };

  static size_t ResolveRunQueues(const Options& options);
  /// The ring a submitter feeds: hint mod ring count, or the calling
  /// thread's stripe.
  size_t PreferredQueue(uint32_t submitter) const {
    if (submitter == kNoSubmitterHint) return StripeOf(queues_.size());
    return queues_.size() == 1 ? 0 : submitter % queues_.size();
  }
  /// Pops from `home` first, then steals scanning the other rings in
  /// index order. Returns false when every ring is empty.
  bool PopAny(size_t home, WorkItem& out);
  /// Pushes a FIFO prefix of `items[0..count)`: as one block into
  /// `home`, then the rest into the other rings in index order, one
  /// contiguous block each. Returns how many items were moved from.
  size_t PushSpilling(size_t home, WorkItem* items, size_t count);

  Outcome SubmitImpl(WorkItem item, bool allow_inline);
  /// Admission-time observability: decides trace sampling, stamps the
  /// policy's queue-wait estimate when someone will consume it, and
  /// emits the kAdmission event. Called after Decide().
  void StampAdmission(WorkItem& item, Nanos now, RejectReason reason);
  /// Emits a single-kind event for `item` (shed/expired/dequeue).
  void TraceOutcome(const WorkItem& item, Nanos now, stats::TraceEventKind kind,
                    Nanos arg0 = 0, Nanos arg1 = 0);
  void WorkerLoop(size_t worker_index);
  /// Runs Points 2–3 for one popped item: dequeue bookkeeping, deadline
  /// check, handler, completion. `counters` is the executing thread's
  /// home counter block.
  void ProcessItem(WorkItem& item, QueueCounters& counters);
  /// Pops every queued item from every ring and completes it with
  /// kShedded (shutdown discard path; also catches items a Submit()
  /// raced in after the workers exited, so every admitted item
  /// terminates exactly once).
  void DrainAsShedded();

  Options options_;
  const QueryTypeRegistry* registry_;
  Clock* clock_;
  QueueState queue_state_;
  std::unique_ptr<AdmissionPolicy> policy_;
  Status init_status_;
  Handler handler_;

  /// The run-queue shards; fixed after construction.
  std::vector<std::unique_ptr<RunQueue>> queues_;
  ParkingLot idle_workers_;
  std::atomic<bool> stopping_{false};

  std::mutex lifecycle_mu_;  ///< Guards started_ / workers_ only.
  bool started_ = false;
  std::vector<std::thread> workers_;

  stats::FlightRecorder* recorder_ = nullptr;
  stats::Histogram* est_err_under_ = nullptr;  ///< actual > estimate.
  stats::Histogram* est_err_over_ = nullptr;   ///< actual < estimate.
  uint64_t collector_handle_ = 0;
};

/// Helper that builds a Stage together with its policy in one call: the
/// policy needs the stage's QueueState, which needs the stage... This
/// factory owns the chicken-and-egg wiring. Returns the stage (policy
/// attached) or the policy-construction error.
class StageBuilder {
 public:
  StageBuilder& SetOptions(const Stage::Options& options) {
    options_ = options;
    return *this;
  }
  StageBuilder& SetRegistry(const QueryTypeRegistry* registry) {
    registry_ = registry;
    return *this;
  }
  StageBuilder& SetClock(Clock* clock) {
    clock_ = clock;
    return *this;
  }
  StageBuilder& SetPolicyConfig(const PolicyConfig& config) {
    policy_config_ = config;
    return *this;
  }
  StageBuilder& SetHandler(Stage::Handler handler) {
    handler_ = std::move(handler);
    return *this;
  }

  /// Builds and returns the stage (not yet started).
  StatusOr<std::unique_ptr<Stage>> Build();

 private:
  Stage::Options options_;
  const QueryTypeRegistry* registry_ = nullptr;
  Clock* clock_ = nullptr;
  PolicyConfig policy_config_;
  Stage::Handler handler_;
};

}  // namespace bouncer::server

#endif  // BOUNCER_SERVER_STAGE_H_
