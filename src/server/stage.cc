#include "src/server/stage.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/policy_factory.h"
#include "src/util/thread_name.h"

namespace bouncer::server {

namespace {
/// Upper bound on run-queue shards: beyond this the steal scan and the
/// snapshot sums cost more than the contention they avoid.
constexpr size_t kMaxRunQueues = 64;
}  // namespace

size_t Stage::ResolveRunQueues(const Options& options) {
  size_t n = options.num_run_queues != 0 ? options.num_run_queues
                                         : options.num_workers;
  if (n == 0) n = 1;
  return std::min(n, kMaxRunQueues);
}

Stage::Stage(const Options& options, const QueryTypeRegistry* registry,
             Clock* clock, const PolicyFactory& policy_factory,
             Handler handler)
    : options_(options),
      registry_(registry),
      clock_(clock),
      queue_state_(registry->size(), ResolveRunQueues(options)),
      handler_(std::move(handler)) {
  const size_t num_queues = ResolveRunQueues(options_);
  // The capacity bound covers the logical FIFO; each ring gets an even
  // share (the ring rounds it up to a power of two, so the total can
  // exceed the request slightly — it is a memory bound, not a quota).
  const size_t per_queue = std::max<size_t>(
      2, (options_.queue_capacity + num_queues - 1) / num_queues);
  queues_.reserve(num_queues);
  for (size_t q = 0; q < num_queues; ++q) {
    queues_.push_back(std::make_unique<RunQueue>(per_queue));
  }
  PolicyContext context{registry_, &queue_state_, options_.num_workers,
                        num_queues, options_.tenants};
  auto policy = policy_factory(context);
  if (policy.ok()) {
    policy_ = std::move(*policy);
  } else {
    init_status_ = policy.status();
  }
  if constexpr (stats::kTraceCompiledIn) {
    recorder_ = options_.recorder != nullptr ? options_.recorder
                                             : &stats::FlightRecorder::Global();
  }
  if (options_.metrics != nullptr) {
    const std::string prefix = "stage." + options_.name + ".";
    est_err_under_ =
        options_.metrics->GetHistogram(prefix + "est_wait_err_under_ns");
    est_err_over_ =
        options_.metrics->GetHistogram(prefix + "est_wait_err_over_ns");
    collector_handle_ =
        options_.metrics->AddCollector([this, prefix](stats::MetricSink& sink) {
          const StageCounters snapshot = counters();
          sink.AddCounter(prefix + "received", snapshot.received);
          sink.AddCounter(prefix + "accepted", snapshot.accepted);
          sink.AddCounter(prefix + "rejected", snapshot.rejected);
          sink.AddCounter(prefix + "expired", snapshot.expired);
          sink.AddCounter(prefix + "shedded", snapshot.shedded);
          sink.AddCounter(prefix + "completed", snapshot.completed);
          sink.AddCounter(prefix + "worker_parks", snapshot.worker_parks);
          sink.AddGauge(prefix + "queue_length",
                        static_cast<int64_t>(queue_state_.TotalLength()));
        });
  }
}

Stage::~Stage() {
  // Drop the collector before any member dies: a concurrent Snapshot()
  // must never run the callback against a half-destroyed stage.
  if (collector_handle_ != 0) {
    options_.metrics->RemoveCollector(collector_handle_);
  }
  Stop(false);
}

StageCounters Stage::counters() const {
  StageCounters out;
  for (const auto& q : queues_) {
    const QueueCounters& c = q->counters;
    out.received += c.received.load(std::memory_order_relaxed);
    out.accepted += c.accepted.load(std::memory_order_relaxed);
    out.rejected += c.rejected.load(std::memory_order_relaxed);
    out.expired += c.expired.load(std::memory_order_relaxed);
    out.shedded += c.shedded.load(std::memory_order_relaxed);
    out.completed += c.completed.load(std::memory_order_relaxed);
    out.worker_parks += c.worker_parks.load(std::memory_order_relaxed);
  }
  return out;
}

size_t Stage::RunQueueLength(size_t queue) const {
  if (queue >= queues_.size()) return 0;
  return queues_[queue]->fifo.SizeApprox();
}

bool Stage::PopAny(size_t home, WorkItem& out) {
  const size_t n = queues_.size();
  if (queues_[home]->fifo.TryPop(out)) return true;
  for (size_t k = 1; k < n; ++k) {
    if (queues_[(home + k) % n]->fifo.TryPop(out)) return true;
  }
  return false;
}

size_t Stage::PushSpilling(size_t home, WorkItem* items, size_t count) {
  const size_t n = queues_.size();
  size_t pushed = 0;
  for (size_t k = 0; k < n && pushed < count; ++k) {
    pushed += queues_[(home + k) % n]->fifo.TryPushBatch(items + pushed,
                                                         count - pushed);
  }
  return pushed;
}

bool Stage::AnyQueueNonEmpty() const {
  for (const auto& q : queues_) {
    if (!q->fifo.EmptyApprox()) return true;
  }
  return false;
}

void Stage::StampAdmission(WorkItem& item, Nanos now, RejectReason reason) {
  if constexpr (stats::kTraceCompiledIn) {
    if (!item.traced && recorder_->ShouldSample(item.id)) item.traced = true;
  }
  if (item.traced || est_err_under_ != nullptr) {
    item.estimated_wait = policy_->EstimatedQueueWait(item.key());
  }
  if (reason != RejectReason::kNone) item.reject_reason = reason;
  if constexpr (stats::kTraceCompiledIn) {
    if (item.traced) {
      stats::TraceEvent event;
      event.ts = now;
      event.id = item.id;
      event.arg0 = item.estimated_wait;
      event.arg1 = item.deadline > 0 ? item.deadline - now : -1;
      event.type = static_cast<uint16_t>(item.type);
      event.tenant = item.tenant;
      event.kind = static_cast<uint8_t>(stats::TraceEventKind::kAdmission);
      event.reason = static_cast<uint8_t>(reason);
      recorder_->Record(event);
    }
  }
}

void Stage::TraceOutcome(const WorkItem& item, Nanos now,
                         stats::TraceEventKind kind, Nanos arg0, Nanos arg1) {
  if constexpr (stats::kTraceCompiledIn) {
    if (!item.traced) return;
    stats::TraceEvent event;
    event.ts = now;
    event.id = item.id;
    event.arg0 = arg0;
    event.arg1 = arg1;
    event.type = static_cast<uint16_t>(item.type);
    event.tenant = item.tenant;
    event.kind = static_cast<uint8_t>(kind);
    event.reason = static_cast<uint8_t>(item.reject_reason);
    recorder_->Record(event);
  } else {
    (void)item;
    (void)now;
    (void)kind;
    (void)arg0;
    (void)arg1;
  }
}

Status Stage::Start() {
  if (!init_status_.ok()) return init_status_;
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::FailedPrecondition("stage already started");
  started_ = true;
  stopping_.store(false, std::memory_order_release);
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
    SetThreadName(workers_.back(), options_.name + "-w" + std::to_string(i));
  }
  return Status::OK();
}

void Stage::Stop(bool drain) {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_) return;
    stopping_.store(true, std::memory_order_release);
    workers.swap(workers_);
  }
  if (!drain) {
    // Discard queued work before the workers can reach it; workers race
    // us for individual items, which only moves an item from "shedded"
    // to "completed".
    DrainAsShedded();
  }
  idle_workers_.NotifyAll();
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }
  // Workers exit once stopping_ is visible and every ring reads empty; a
  // Submit() racing Stop() can still have pushed after that. Sweep so
  // every admitted item completes exactly once.
  DrainAsShedded();
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  started_ = false;
}

size_t Stage::QueueLength() const { return queue_state_.TotalLength(); }

Outcome Stage::Submit(WorkItem item) {
  return SubmitImpl(std::move(item), /*allow_inline=*/false);
}

Outcome Stage::SubmitInline(WorkItem item) {
  return SubmitImpl(std::move(item), /*allow_inline=*/true);
}

Stage::BatchResult Stage::SubmitBatch(std::span<WorkItem> items,
                                      uint32_t submitter) {
  BatchResult result;
  if (items.empty()) return result;
  const size_t home = PreferredQueue(submitter);
  RunQueue& queue = *queues_[home];
  // One timestamp for the whole batch: every item of one epoll wakeup
  // arrived "now" at frame granularity anyway, and the clock read is a
  // per-item cost the batch path exists to amortize.
  const Nanos now = clock_->Now();
  queue.counters.received.fetch_add(items.size(), std::memory_order_relaxed);

  // Pass 1 — admission. Rejections complete right here (the caller's
  // event loop answers them without touching workers); admitted items are
  // compacted to the front of the span, preserving relative order.
  size_t admitted = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    WorkItem& item = items[i];
    item.arrival = now;
    const Decision decision = policy_->Decide(item.key(), now);
    if (decision == Decision::kReject) {
      ++result.rejected;
      StampAdmission(item, now, RejectReason::kPolicy);
      policy_->OnRejected(item.key(), now);
      if (item.on_complete) item.on_complete(item, Outcome::kRejected);
      continue;
    }
    // Estimate is stamped before OnEnqueued: it should cover the work
    // ahead of this item, not the item's own contribution.
    StampAdmission(item, now, RejectReason::kNone);
    item.enqueued = now;
    queue_state_.OnEnqueued(item.type);
    policy_->OnEnqueued(item.key(), now);  // Point 1.
    if (admitted != i) items[admitted] = std::move(item);
    ++admitted;
  }
  queue.counters.rejected.fetch_add(result.rejected,
                                    std::memory_order_relaxed);

  // Pass 2 — one cursor reservation enqueues the whole admitted block
  // into the submitter's preferred ring; a remainder that does not fit
  // spills into the other rings, one contiguous block per ring.
  size_t pushed = 0;
  if (admitted > 0 && !stopping_.load(std::memory_order_acquire)) {
    pushed = PushSpilling(home, items.data(), admitted);
  }
  for (size_t i = pushed; i < admitted; ++i) {
    // Every ring full (or stopping): the policy saw an accept, so report
    // the drop per item to keep its windows and aggregates honest.
    WorkItem& item = items[i];
    queue_state_.OnDequeued(item.type);
    item.reject_reason = RejectReason::kQueueFull;
    TraceOutcome(item, now, stats::TraceEventKind::kShed);
    policy_->OnShedded(item.key(), now);
    if (item.on_complete) item.on_complete(item, Outcome::kShedded);
  }
  result.admitted = static_cast<uint32_t>(pushed);
  result.shedded = static_cast<uint32_t>(admitted - pushed);
  queue.counters.accepted.fetch_add(result.admitted,
                                    std::memory_order_relaxed);
  queue.counters.shedded.fetch_add(result.shedded, std::memory_order_relaxed);
  idle_workers_.NotifyN(pushed);
  return result;
}

bool Stage::TryRunOne() {
  const size_t home = PreferredQueue(kNoSubmitterHint);
  WorkItem item;
  if (!PopAny(home, item)) return false;
  ProcessItem(item, queues_[home]->counters);
  return true;
}

Outcome Stage::SubmitImpl(WorkItem item, bool allow_inline) {
  const Nanos now = clock_->Now();
  item.arrival = now;
  const size_t home = PreferredQueue(kNoSubmitterHint);
  RunQueue& queue = *queues_[home];
  queue.counters.received.fetch_add(1, std::memory_order_relaxed);

  const Decision decision = policy_->Decide(item.key(), now);
  if (decision == Decision::kReject) {
    queue.counters.rejected.fetch_add(1, std::memory_order_relaxed);
    StampAdmission(item, now, RejectReason::kPolicy);
    policy_->OnRejected(item.key(), now);
    if (item.on_complete) item.on_complete(item, Outcome::kRejected);
    return Outcome::kRejected;
  }

  // Estimate is stamped before OnEnqueued: it should cover the work
  // ahead of this item, not the item's own contribution.
  StampAdmission(item, now, RejectReason::kNone);
  item.enqueued = now;
  const WorkKey key = item.key();
  // Occupancy and Point 1 go first: a worker that pops the item
  // immediately must observe the enqueue before its own dequeue.
  queue_state_.OnEnqueued(key.type);
  policy_->OnEnqueued(key, now);  // Point 1.
  if (allow_inline && !stopping_.load(std::memory_order_acquire) &&
      queue_state_.TotalLength() == 1 && queue.fifo.EmptyApprox()) {
    // Empty-and-admitting: nothing is queued in any ring ahead of this
    // item (the occupancy of 1 is its own enqueue), so running it here
    // cannot overtake FIFO order. Points 2–3 run on the calling thread.
    queue.counters.accepted.fetch_add(1, std::memory_order_relaxed);
    ProcessItem(item, queue.counters);
    return Outcome::kCompleted;
  }
  if (stopping_.load(std::memory_order_acquire) ||
      PushSpilling(home, &item, 1) == 0) {
    // A failed push leaves `item` intact (every ring full).
    queue_state_.OnDequeued(key.type);
    item.reject_reason = RejectReason::kQueueFull;
    TraceOutcome(item, now, stats::TraceEventKind::kShed);
    queue.counters.shedded.fetch_add(1, std::memory_order_relaxed);
    // The policy saw an accept; report the drop so its windows and
    // aggregates stay honest.
    policy_->OnShedded(key, now);
    if (item.on_complete) item.on_complete(item, Outcome::kShedded);
    return Outcome::kShedded;
  }
  queue.counters.accepted.fetch_add(1, std::memory_order_relaxed);
  // An inline caller that fell back here helps until its item has run
  // (SubmitInline's contract), so only Submit() wakes a worker.
  if (!allow_inline) idle_workers_.NotifyOne();
  return Outcome::kCompleted;  // Admitted; terminal outcome follows async.
}

void Stage::WorkerLoop(size_t worker_index) {
  // Park as soon as every ring reads dry. Workers usually outnumber the
  // CPUs left over by the submitting threads, so an idle spin would burn
  // the cycles that feed them; the park/notify handshake (sleeper
  // registration before the ring re-check) loses no wake-up.
  const size_t home = worker_index % queues_.size();
  QueueCounters& counters = queues_[home]->counters;
  WorkItem item;
  for (;;) {
    if (PopAny(home, item)) {
      ProcessItem(item, counters);
      item = WorkItem();
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Re-check after observing the stop flag: drain semantics require
      // processing everything pushed before Stop().
      if (!PopAny(home, item)) return;
      ProcessItem(item, counters);
      item = WorkItem();
      continue;
    }
    const bool parked = idle_workers_.ParkUnless([this] {
      return stopping_.load(std::memory_order_relaxed) || AnyQueueNonEmpty();
    });
    if (parked) counters.worker_parks.fetch_add(1, std::memory_order_relaxed);
  }
}

void Stage::ProcessItem(WorkItem& item, QueueCounters& counters) {
  const Nanos dequeue_time = clock_->Now();
  item.dequeued = dequeue_time;
  queue_state_.OnDequeued(item.type);
  const Nanos wait = item.WaitTime();
  policy_->OnDequeued(item.key(), wait, dequeue_time);  // Point 2.
  if (item.estimated_wait >= 0) {
    // How far off was the Eq. 2 estimate for this item? Signed error
    // split across two histograms (the histogram clamps negatives).
    const Nanos err = wait - item.estimated_wait;
    if (est_err_under_ != nullptr) {
      if (err >= 0) {
        est_err_under_->Record(err);
      } else {
        est_err_over_->Record(-err);
      }
    }
    TraceOutcome(item, dequeue_time, stats::TraceEventKind::kDequeue, wait,
                 item.estimated_wait);
  } else {
    TraceOutcome(item, dequeue_time, stats::TraceEventKind::kDequeue, wait, -1);
  }

  if (item.deadline > 0 && dequeue_time > item.deadline) {
    // Admitted but already expired: doing the work would be useless.
    counters.expired.fetch_add(1, std::memory_order_relaxed);
    item.reject_reason = RejectReason::kExpired;
    TraceOutcome(item, dequeue_time, stats::TraceEventKind::kExpired);
    if (item.on_complete) item.on_complete(item, Outcome::kExpired);
    return;
  }

  handler_(item);
  const Nanos done = clock_->Now();
  item.completed = done;
  policy_->OnCompleted(item.key(), item.ProcessingTime(), done);  // Point 3.
  counters.completed.fetch_add(1, std::memory_order_relaxed);
  if (item.on_complete) item.on_complete(item, Outcome::kCompleted);
}

void Stage::DrainAsShedded() {
  // Shutdown path: attribute the sheds to ring 0's block — counters are
  // atomics, so sharing the block with a racing worker is safe, just not
  // contention-free (irrelevant while stopping).
  QueueCounters& counters = queues_[0]->counters;
  WorkItem item;
  while (PopAny(0, item)) {
    const Nanos now = clock_->Now();
    counters.shedded.fetch_add(1, std::memory_order_relaxed);
    queue_state_.OnDequeued(item.type);
    item.reject_reason = RejectReason::kQueueFull;
    TraceOutcome(item, now, stats::TraceEventKind::kShed);
    policy_->OnShedded(item.key(), now);
    if (item.on_complete) item.on_complete(item, Outcome::kShedded);
    item = WorkItem();
  }
}

StatusOr<std::unique_ptr<Stage>> StageBuilder::Build() {
  if (registry_ == nullptr) {
    return Status::InvalidArgument("StageBuilder requires a registry");
  }
  if (clock_ == nullptr) clock_ = SystemClock::Global();
  if (!handler_) {
    return Status::InvalidArgument("StageBuilder requires a handler");
  }
  const PolicyConfig config = policy_config_;
  auto stage = std::make_unique<Stage>(
      options_, registry_, clock_,
      [&config](const PolicyContext& context) {
        return CreatePolicy(config, context);
      },
      handler_);
  if (!stage->init_status().ok()) return stage->init_status();
  return stage;
}

}  // namespace bouncer::server
