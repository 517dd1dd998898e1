#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace bouncer::sim {

void Simulator::FifoRing::Rebuild(size_t capacity) {
  size_t pow2 = 64;
  while (pow2 < capacity) pow2 <<= 1;
  std::vector<QueuedQuery> fresh(pow2);
  for (size_t i = 0; i < size_; ++i) {
    fresh[i] = slots_[(head_ + i) & mask_];
  }
  slots_ = std::move(fresh);
  mask_ = pow2 - 1;
  head_ = 0;
}

Simulator::Simulator(const workload::WorkloadSpec& workload,
                     const SimulationConfig& config,
                     const PolicyConfig& policy_config)
    : workload_(workload),
      config_(config),
      registry_(workload.size() > 0 ? workload.type(0).slo : Slo{}),
      type_ids_(),
      queue_state_(workload.size() + 1),  // +1 for the default type.
      rng_(config.seed) {
  type_ids_ = workload_.PopulateRegistry(&registry_);
  PolicyContext context{&registry_, &queue_state_, config_.parallelism};
  auto policy = CreatePolicy(policy_config, context);
  assert(policy.ok());
  policy_ = std::move(*policy);

  // Pre-reserve every per-run container so the event loop never
  // reallocates mid-run. The event heap holds at most one pending
  // arrival plus `parallelism` in-flight completions; the in-flight slab
  // and its free list never exceed `parallelism` slots.
  {
    std::vector<Event> storage;
    storage.reserve(config_.parallelism + 2);
    events_ = decltype(events_)(std::greater<Event>(), std::move(storage));
  }
  in_flight_.reserve(config_.parallelism);
  free_slots_.reserve(config_.parallelism);

  use_fifo_ring_ = config_.discipline == QueueDiscipline::kFifo;
  if (use_fifo_ring_) {
    fifo_queue_.Reserve(std::min<uint64_t>(config_.total_queries, 4096));
  }

  counters_.resize(workload_.size());
  const uint64_t measured =
      config_.total_queries > config_.warmup_queries
          ? config_.total_queries - config_.warmup_queries
          : 0;
  for (size_t i = 0; i < workload_.size(); ++i) {
    TypeCounters& c = counters_[i];
    switch (config_.stats_mode) {
      case StatsMode::kExactSamples: {
        // Size each series to the type's expected measured share so the
        // sample vectors are allocated once, up front.
        const auto expect = static_cast<size_t>(
            static_cast<double>(measured) * workload_.type(i).proportion) +
            16;
        c.rt_ms.Reserve(expect);
        c.pt_ms.Reserve(expect);
        c.wt_ms.Reserve(expect);
        break;
      }
      case StatsMode::kStreamingSummary:
        c.rt_hist = std::make_unique<stats::Histogram>();
        c.pt_hist = std::make_unique<stats::Histogram>();
        c.wt_hist = std::make_unique<stats::Histogram>();
        break;
      case StatsMode::kNone:
        break;
    }
  }
  if (config_.stats_mode == StatsMode::kStreamingSummary) {
    all_rt_hist_ = std::make_unique<stats::Histogram>();
    all_pt_hist_ = std::make_unique<stats::Histogram>();
  }

  // Queue-order key per type: 0 for FIFO (pure arrival order), the mean
  // processing time for SJF, the configured priority for kPriority.
  order_keys_.assign(workload_.size(), 0);
  switch (config_.discipline) {
    case QueueDiscipline::kFifo:
      break;
    case QueueDiscipline::kShortestJobFirst:
      for (size_t i = 0; i < workload_.size(); ++i) {
        order_keys_[i] =
            static_cast<int64_t>(workload_.type(i).processing_time.Mean());
      }
      break;
    case QueueDiscipline::kPriority:
      for (size_t i = 0; i < workload_.size(); ++i) {
        order_keys_[i] = i < config_.type_priorities.size()
                             ? config_.type_priorities[i]
                             : 0;
      }
      break;
  }
}

void Simulator::SetTickCallback(Nanos interval, TickCallback callback) {
  tick_interval_ = interval;
  tick_callback_ = std::move(callback);
  next_tick_ = interval;
}

std::pair<uint64_t, uint64_t> Simulator::LiveTypeCounts(size_t i) const {
  if (i >= counters_.size()) return {0, 0};
  return {counters_[i].received, counters_[i].rejected};
}

void Simulator::AccumulateBusy(Nanos now) {
  if (measure_start_ >= 0) {
    const Nanos start = std::max(last_busy_change_, measure_start_);
    Nanos end = now;
    if (last_arrival_time_ > 0) end = std::min(end, last_arrival_time_);
    if (end > start) {
      busy_integral_ns_ +=
          static_cast<double>(busy_) * static_cast<double>(end - start);
    }
  }
  last_busy_change_ = now;
}

void Simulator::HandleArrival(Nanos now) {
  const uint64_t index = generated_++;
  if (generated_ < config_.total_queries) {
    const double mean_gap = kSecond / config_.arrival_rate_qps;
    const Nanos gap = std::max<Nanos>(
        1, static_cast<Nanos>(rng_.NextExponential(mean_gap)));
    events_.push(Event{now + gap, Event::Kind::kArrival, 0});
  } else {
    last_arrival_time_ = now;  // Utilization window closes here.
  }

  const bool measured = index >= config_.warmup_queries;
  if (measured && measure_start_ < 0) measure_start_ = now;

  const auto type_index = static_cast<uint32_t>(workload_.SampleType(rng_));
  const QueryTypeId id = type_ids_[type_index];
  if (measured) ++counters_[type_index].received;

  const Decision decision = policy_->Decide(id, now);
  if (decision == Decision::kAccept) {
    if (measured) ++counters_[type_index].accepted;
    queue_state_.OnEnqueued(id);
    policy_->OnEnqueued(id, now);
    QueuePush(QueuedQuery{type_index, now, measured,
                          order_keys_[type_index], next_sequence_++});
    if (busy_ < config_.parallelism) StartNext(now);
  } else {
    if (measured) ++counters_[type_index].rejected;
    policy_->OnRejected(id, now);
  }
}

void Simulator::StartNext(Nanos now) {
  assert(!QueueEmpty());
  // Pull queued queries until one that has not expired is found (the
  // framework drops expired queries at dequeue without processing them,
  // matching the server Stage and LIquid's expiration enforcement).
  QueuedQuery q{};
  while (true) {
    if (QueueEmpty()) return;
    q = QueuePop();
    const QueryTypeId expired_id = type_ids_[q.type_index];
    if (config_.deadline > 0 && now > q.enqueued + config_.deadline) {
      queue_state_.OnDequeued(expired_id);
      policy_->OnDequeued(expired_id, now - q.enqueued, now);
      if (q.measured) ++counters_[q.type_index].expired;
      continue;
    }
    break;
  }
  const QueryTypeId id = type_ids_[q.type_index];
  queue_state_.OnDequeued(id);
  policy_->OnDequeued(id, now - q.enqueued, now);

  const Nanos pt = std::max<Nanos>(
      1, workload_.SampleProcessingTime(q.type_index, rng_));
  uint64_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = in_flight_.size();
    in_flight_.emplace_back();
  }
  in_flight_[slot] =
      InFlight{q.type_index, q.enqueued, now, pt, q.measured};

  AccumulateBusy(now);
  ++busy_;
  events_.push(Event{now + pt, Event::Kind::kCompletion, slot});
}

void Simulator::RecordLatencies(const InFlight& rec) {
  TypeCounters& c = counters_[rec.type_index];
  const Nanos wt = rec.dequeued - rec.enqueued;
  switch (config_.stats_mode) {
    case StatsMode::kExactSamples:
      c.rt_ms.Add(ToMillis(wt + rec.processing));
      c.pt_ms.Add(ToMillis(rec.processing));
      c.wt_ms.Add(ToMillis(wt));
      break;
    case StatsMode::kStreamingSummary:
      c.rt_hist->Record(wt + rec.processing);
      c.pt_hist->Record(rec.processing);
      c.wt_hist->Record(wt);
      all_rt_hist_->Record(wt + rec.processing);
      all_pt_hist_->Record(rec.processing);
      break;
    case StatsMode::kNone:
      break;
  }
}

void Simulator::HandleCompletion(Nanos now, uint64_t slot) {
  const InFlight rec = in_flight_[slot];
  free_slots_.push_back(slot);
  const QueryTypeId id = type_ids_[rec.type_index];
  policy_->OnCompleted(id, rec.processing, now);

  AccumulateBusy(now);
  --busy_;

  if (rec.measured) {
    TypeCounters& c = counters_[rec.type_index];
    ++c.completed;
    total_work_ns_ += static_cast<double>(rec.processing);
    if (config_.deadline > 0 && now > rec.enqueued + config_.deadline) {
      // Processed, but the client's deadline already passed: the work
      // was useless (paper §2's wasted-work motivation).
      ++c.useless;
      wasted_work_ns_ += static_cast<double>(rec.processing);
    }
    RecordLatencies(rec);
  }
  if (!QueueEmpty() && busy_ < config_.parallelism) StartNext(now);
}

SimulationResult Simulator::Run() {
  assert(config_.arrival_rate_qps > 0.0);
  assert(workload_.size() > 0);

  events_.push(Event{0, Event::Kind::kArrival, 0});
  while (!events_.empty()) {
    const Event event = events_.top();
    // Fire ticks that precede this event.
    while (tick_callback_ && next_tick_ <= event.time) {
      tick_callback_(next_tick_);
      next_tick_ += tick_interval_;
    }
    events_.pop();
    ++events_processed_;
    if (event.kind == Event::Kind::kArrival) {
      HandleArrival(event.time);
    } else {
      HandleCompletion(event.time, event.completion_id);
    }
  }

  SimulationResult result;
  result.offered_qps = config_.arrival_rate_qps;
  result.events_processed = events_processed_;
  const Nanos window_end =
      last_arrival_time_ > 0 ? last_arrival_time_ : last_busy_change_;
  const Nanos window =
      measure_start_ >= 0 ? window_end - measure_start_ : 0;
  result.measured_seconds = ToSeconds(std::max<Nanos>(window, 0));
  if (window > 0) {
    result.utilization =
        busy_integral_ns_ / (static_cast<double>(config_.parallelism) *
                             static_cast<double>(window));
  }

  const bool streaming = config_.stats_mode == StatsMode::kStreamingSummary;
  stats::SampleSummary all_rt;
  stats::SampleSummary all_pt;
  if (!streaming) {
    size_t pooled = 0;
    for (const TypeCounters& c : counters_) pooled += c.rt_ms.Count();
    all_rt.Reserve(pooled);
    all_pt.Reserve(pooled);
  }
  result.per_type.resize(workload_.size());
  TypeStats& overall = result.overall;
  overall.name = "ALL";
  for (size_t i = 0; i < workload_.size(); ++i) {
    TypeCounters& c = counters_[i];
    TypeStats& t = result.per_type[i];
    t.name = workload_.type(i).name;
    t.received = c.received;
    t.accepted = c.accepted;
    t.rejected = c.rejected;
    t.completed = c.completed;
    t.expired = c.expired;
    t.useless = c.useless;
    t.rejection_pct =
        c.received == 0
            ? 0.0
            : 100.0 * static_cast<double>(c.rejected) /
                  static_cast<double>(c.received);
    if (streaming) {
      t.rt_mean_ms = ToMillis(c.rt_hist->Mean());
      t.rt_p50_ms = ToMillis(c.rt_hist->Percentile(0.50));
      t.rt_p90_ms = ToMillis(c.rt_hist->Percentile(0.90));
      t.rt_p99_ms = ToMillis(c.rt_hist->Percentile(0.99));
      t.pt_p50_ms = ToMillis(c.pt_hist->Percentile(0.50));
      t.pt_p90_ms = ToMillis(c.pt_hist->Percentile(0.90));
      t.wt_p50_ms = ToMillis(c.wt_hist->Percentile(0.50));
    } else {
      // Pool and take the mean first: the selections below reorder the
      // type's raw samples.
      all_rt.Append(c.rt_ms);
      all_pt.Append(c.pt_ms);
      t.rt_mean_ms = c.rt_ms.Mean();
      const std::vector<double> rt = c.rt_ms.Percentiles({0.50, 0.90, 0.99});
      t.rt_p50_ms = rt[0];
      t.rt_p90_ms = rt[1];
      t.rt_p99_ms = rt[2];
      const std::vector<double> pt = c.pt_ms.Percentiles({0.50, 0.90});
      t.pt_p50_ms = pt[0];
      t.pt_p90_ms = pt[1];
      t.wt_p50_ms = c.wt_ms.Percentile(0.50);
    }

    overall.received += c.received;
    overall.accepted += c.accepted;
    overall.rejected += c.rejected;
    overall.completed += c.completed;
    overall.expired += c.expired;
    overall.useless += c.useless;
  }
  overall.rejection_pct =
      overall.received == 0
          ? 0.0
          : 100.0 * static_cast<double>(overall.rejected) /
                static_cast<double>(overall.received);
  if (total_work_ns_ > 0.0) {
    result.wasted_work_fraction = wasted_work_ns_ / total_work_ns_;
  }
  if (streaming) {
    overall.rt_mean_ms = ToMillis(all_rt_hist_->Mean());
    overall.rt_p50_ms = ToMillis(all_rt_hist_->Percentile(0.50));
    overall.rt_p90_ms = ToMillis(all_rt_hist_->Percentile(0.90));
    overall.rt_p99_ms = ToMillis(all_rt_hist_->Percentile(0.99));
    overall.pt_p50_ms = ToMillis(all_pt_hist_->Percentile(0.50));
    overall.pt_p90_ms = ToMillis(all_pt_hist_->Percentile(0.90));
  } else {
    overall.rt_mean_ms = all_rt.Mean();
    const std::vector<double> rt = all_rt.Percentiles({0.50, 0.90, 0.99});
    overall.rt_p50_ms = rt[0];
    overall.rt_p90_ms = rt[1];
    overall.rt_p99_ms = rt[2];
    const std::vector<double> pt = all_pt.Percentiles({0.50, 0.90});
    overall.pt_p50_ms = pt[0];
    overall.pt_p90_ms = pt[1];
  }
  return result;
}

}  // namespace bouncer::sim
