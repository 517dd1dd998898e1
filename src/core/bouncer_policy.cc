#include "src/core/bouncer_policy.h"

#include <algorithm>
#include <cassert>

#include "src/util/stripe.h"

namespace bouncer {

BouncerPolicy::BouncerPolicy(const PolicyContext& context,
                             const Options& options)
    : registry_(context.registry),
      queue_(context.queue),
      parallelism_(context.parallelism == 0 ? 1 : context.parallelism),
      stripes_(context.counter_stripes == 0 ? 1 : context.counter_stripes),
      options_(options),
      general_histogram_(stats::DualHistogram::Options{
          options.histogram_swap_interval, options.min_samples_to_publish}) {
  assert(registry_ != nullptr && queue_ != nullptr);
  const stats::DualHistogram::Options histo_options{
      options.histogram_swap_interval, options.min_samples_to_publish};
  const size_t num_types = registry_->size();
  type_histograms_.reserve(num_types);
  for (size_t i = 0; i < num_types; ++i) {
    type_histograms_.push_back(
        std::make_unique<stats::DualHistogram>(histo_options));
  }

  // Map each type to its priority level. Under FIFO everything lands in
  // one level, so the hot path reads a single aggregate.
  const auto priority_of = [this](size_t t) {
    return t < options_.type_priorities.size() ? options_.type_priorities[t]
                                               : 0;
  };
  for (size_t t = 0; t < num_types; ++t) {
    sorted_levels_.push_back(priority_of(t));
  }
  std::sort(sorted_levels_.begin(), sorted_levels_.end());
  sorted_levels_.erase(
      std::unique(sorted_levels_.begin(), sorted_levels_.end()),
      sorted_levels_.end());
  if (sorted_levels_.empty()) sorted_levels_.push_back(0);
  level_of_type_.resize(num_types, 0);
  for (size_t t = 0; t < num_types; ++t) {
    level_of_type_[t] = static_cast<size_t>(
        std::lower_bound(sorted_levels_.begin(), sorted_levels_.end(),
                         priority_of(t)) -
        sorted_levels_.begin());
  }
  level_aggs_ =
      std::make_unique<LevelAggregate[]>(sorted_levels_.size() * stripes_);
  type_cache_ = std::make_unique<TypeCache[]>(num_types);
  tracked_total_ = std::make_unique<TrackedCount[]>(stripes_);
  RebuildAggregates();
}

void BouncerPolicy::MaybeSwapAll(Nanos now) {
  // The general histogram's timer paces all swaps, so the common case
  // costs one atomic load; the per-type buffers swap in lockstep with it.
  if (general_histogram_.MaybeSwap(now)) {
    std::lock_guard<std::mutex> lock(swap_mu_);
    for (auto& h : type_histograms_) h->ForceSwap();
    RebuildAggregates();
  }
}

void BouncerPolicy::ForceHistogramSwap() {
  std::lock_guard<std::mutex> lock(swap_mu_);
  general_histogram_.ForceSwap();
  for (auto& h : type_histograms_) h->ForceSwap();
  RebuildAggregates();
}

void BouncerPolicy::RebuildAggregates() {
  const stats::HistogramSummary general = general_histogram_.ReadSummary();
  general_mean_.store(general.mean, std::memory_order_relaxed);

  const size_t num_levels = sorted_levels_.size();
  std::vector<int64_t> warm_sums(num_levels, 0);
  std::vector<int64_t> cold_counts(num_levels, 0);
  int64_t total = 0;
  for (size_t t = 0; t < type_histograms_.size(); ++t) {
    const stats::HistogramSummary s = type_histograms_[t]->ReadSummary();
    const bool warm = s.count >= options_.warmup_min_samples;
    type_cache_[t].mean.store(s.mean, std::memory_order_relaxed);
    type_cache_[t].warm.store(warm, std::memory_order_relaxed);
    const auto count = static_cast<int64_t>(
        queue_->CountForType(static_cast<QueryTypeId>(t)));
    total += count;
    const size_t level = level_of_type_[t];
    if (warm) {
      warm_sums[level] += count * s.mean;
    } else {
      cold_counts[level] += count;
    }
  }
  // The rebuild's snapshot lands wholly in stripe 0; the other stripes
  // restart from zero so cross-stripe sums equal the snapshot.
  for (size_t l = 0; l < num_levels; ++l) {
    for (size_t s = 0; s < stripes_; ++s) {
      LevelAggregate& agg = level_aggs_[l * stripes_ + s];
      agg.warm_weighted_sum.store(s == 0 ? warm_sums[l] : 0,
                                  std::memory_order_relaxed);
      agg.cold_count.store(s == 0 ? cold_counts[l] : 0,
                           std::memory_order_relaxed);
    }
  }
  // Sync the drift detector to the occupancy the rebuild was computed
  // from. Hooks racing this store cause a transient mismatch, which only
  // means a few decisions take the exact slow path until counts agree.
  for (size_t s = 0; s < stripes_; ++s) {
    tracked_total_[s].value.store(s == 0 ? total : 0,
                                  std::memory_order_relaxed);
  }
}

int64_t BouncerPolicy::TrackedTotal() const {
  int64_t sum = 0;
  for (size_t s = 0; s < stripes_; ++s) {
    sum += tracked_total_[s].value.load(std::memory_order_relaxed);
  }
  return sum;
}

void BouncerPolicy::ApplyQueueDelta(QueryTypeId type, int64_t sign) {
  if (type >= type_histograms_.size()) type = kDefaultQueryType;
  const size_t level = level_of_type_[type];
  const size_t stripe = StripeOf(stripes_);
  LevelAggregate& agg = level_aggs_[level * stripes_ + stripe];
  // warm/mean can flip at a concurrent swap between the paired enqueue
  // and dequeue of one query; the resulting drift is bounded by the
  // queries in flight across one swap and is wiped by the next rebuild.
  if (type_cache_[type].warm.load(std::memory_order_relaxed)) {
    const Nanos mean = type_cache_[type].mean.load(std::memory_order_relaxed);
    agg.warm_weighted_sum.fetch_add(sign * mean, std::memory_order_relaxed);
  } else {
    agg.cold_count.fetch_add(sign, std::memory_order_relaxed);
  }
  tracked_total_[stripe].value.fetch_add(sign, std::memory_order_relaxed);
}

void BouncerPolicy::OnEnqueued(WorkKey key, Nanos now) {
  (void)now;
  ApplyQueueDelta(key.type, +1);
}

void BouncerPolicy::OnDequeued(WorkKey key, Nanos wait_time, Nanos now) {
  (void)wait_time;
  (void)now;
  ApplyQueueDelta(key.type, -1);
}

void BouncerPolicy::OnShedded(WorkKey key, Nanos now) {
  (void)now;
  ApplyQueueDelta(key.type, -1);
}

Nanos BouncerPolicy::EstimateQueueWaitSlow(QueryTypeId type) const {
  // Eq. 2: ewt_mean = sum_type(count(type) * pt_mean(type)) / P. With
  // priorities configured, only work served at or ahead of `type`'s
  // priority level contributes.
  const bool priority_aware = !options_.type_priorities.empty();
  const auto priority_of = [this](size_t t) {
    return t < options_.type_priorities.size() ? options_.type_priorities[t]
                                               : 0;
  };
  const int own_priority =
      priority_aware ? priority_of(type) : 0;
  int64_t weighted_sum = 0;
  const stats::HistogramSummary general = general_histogram_.ReadSummary();
  for (size_t t = 0; t < type_histograms_.size(); ++t) {
    if (priority_aware && priority_of(t) > own_priority) continue;
    const uint64_t count =
        queue_->CountForType(static_cast<QueryTypeId>(t));
    if (count == 0) continue;
    stats::HistogramSummary s = type_histograms_[t]->ReadSummary();
    // Types still cold contribute via the general histogram's mean so the
    // wait estimate does not silently drop their queued work.
    const Nanos mean = s.count >= options_.warmup_min_samples
                           ? s.mean
                           : general.mean;
    weighted_sum += static_cast<int64_t>(count) * mean;
  }
  return weighted_sum / static_cast<int64_t>(parallelism_);
}

Nanos BouncerPolicy::EstimateQueueWait(QueryTypeId type) const {
  if (type >= type_histograms_.size()) type = kDefaultQueryType;
  // Out-of-band queue mutation (tests and tools drive QueueState without
  // the policy hooks) shows up as a count mismatch: answer exactly via
  // the rescan until a rebuild re-syncs the aggregates.
  if (TrackedTotal() != static_cast<int64_t>(queue_->TotalLength())) {
    return EstimateQueueWaitSlow(type);
  }
  const Nanos general_mean = general_mean_.load(std::memory_order_relaxed);
  int64_t weighted_sum = 0;
  const size_t own_level = level_of_type_[type];
  for (size_t l = 0; l <= own_level; ++l) {
    for (size_t s = 0; s < stripes_; ++s) {
      const LevelAggregate& agg = level_aggs_[l * stripes_ + s];
      weighted_sum +=
          agg.warm_weighted_sum.load(std::memory_order_relaxed) +
          agg.cold_count.load(std::memory_order_relaxed) * general_mean;
    }
  }
  // Racing hooks can transiently drive the aggregate a hair negative.
  if (weighted_sum < 0) weighted_sum = 0;
  const Nanos fast = weighted_sum / static_cast<int64_t>(parallelism_);
  if (options_.check_estimates) {
    const Nanos slow = EstimateQueueWaitSlow(type);
    assert(fast == slow && "incremental Eq. 2 aggregate diverged");
    (void)slow;
  }
  return fast;
}

BouncerPolicy::Estimates BouncerPolicy::EstimateFor(QueryTypeId type,
                                                    Nanos now) const {
  (void)now;
  Estimates e;
  if (type >= type_histograms_.size()) type = kDefaultQueryType;
  stats::HistogramSummary s = type_histograms_[type]->ReadSummary();
  e.cold = s.count < options_.warmup_min_samples;
  if (e.cold && options_.cold_start_mode == ColdStartMode::kGeneralHistogram) {
    s = general_histogram_.ReadSummary();
  }
  e.ewt_mean = EstimateQueueWait(type);
  e.ert_p50 = e.ewt_mean + s.p50;  // Eq. 3.
  e.ert_p90 = e.ewt_mean + s.p90;  // Eq. 4.
  e.ert_p99 = e.ewt_mean + s.p99;
  return e;
}

Decision BouncerPolicy::DecideWithEstimates(QueryTypeId type, Nanos now,
                                            Estimates* out) {
  if (type >= type_histograms_.size()) type = kDefaultQueryType;
  stats::HistogramSummary s = type_histograms_[type]->ReadSummary();
  const bool cold = s.count < options_.warmup_min_samples;
  const Slo* slo = &registry_->GetSlo(type);
  if (cold) {
    switch (options_.cold_start_mode) {
      case ColdStartMode::kAcceptAll:
        if (out != nullptr) {
          out->cold = true;
          out->ewt_mean = 0;
        }
        return Decision::kAccept;
      case ColdStartMode::kGeneralHistogram: {
        // Appendix A: decide from the general histogram under the default
        // (catch-all) type's SLO. If even that is empty, there is nothing
        // to reject on — let the query in to populate the histograms.
        const stats::HistogramSummary general =
            general_histogram_.ReadSummary();
        if (general.empty()) {
          if (out != nullptr) out->cold = true;
          return Decision::kAccept;
        }
        s = general;
        slo = &registry_->GetSlo(kDefaultQueryType);
        break;
      }
      case ColdStartMode::kNone:
        break;  // Proceed with the (possibly empty) type summary.
    }
  }

  const Nanos ewt = EstimateQueueWait(type);
  const Nanos ert_p50 = ewt + s.p50;
  const Nanos ert_p90 = ewt + s.p90;
  const Nanos ert_p99 = ewt + s.p99;
  if (out != nullptr) {
    out->ewt_mean = ewt;
    out->ert_p50 = ert_p50;
    out->ert_p90 = ert_p90;
    out->ert_p99 = ert_p99;
    out->cold = cold;
  }

  // Alg. 1 and its alternative expressions.
  bool reject = false;
  switch (options_.decision_expr) {
    case DecisionExpr::kP50OrP90:
      reject = ert_p50 > slo->p50 || ert_p90 > slo->p90;
      break;
    case DecisionExpr::kP50Only:
      reject = ert_p50 > slo->p50;
      break;
    case DecisionExpr::kP90Only:
      reject = ert_p90 > slo->p90;
      break;
    case DecisionExpr::kP50OrP90OrP99:
      reject = ert_p50 > slo->p50 || ert_p90 > slo->p90 ||
               (slo->p99 > 0 && ert_p99 > slo->p99);
      break;
  }
  (void)now;
  return reject ? Decision::kReject : Decision::kAccept;
}

Decision BouncerPolicy::Decide(WorkKey key, Nanos now) {
  MaybeSwapAll(now);
  return DecideWithEstimates(key.type, now, nullptr);
}

void BouncerPolicy::OnCompleted(WorkKey key, Nanos processing_time,
                                Nanos now) {
  QueryTypeId type = key.type;
  if (type >= type_histograms_.size()) type = kDefaultQueryType;
  type_histograms_[type]->Record(processing_time);
  general_histogram_.Record(processing_time);
  MaybeSwapAll(now);
}

stats::HistogramSummary BouncerPolicy::TypeSummary(QueryTypeId type) const {
  if (type >= type_histograms_.size()) type = kDefaultQueryType;
  return type_histograms_[type]->ReadSummary();
}

stats::HistogramSummary BouncerPolicy::GeneralSummary() const {
  return general_histogram_.ReadSummary();
}

}  // namespace bouncer
