#include "src/core/tenant_fair_policy.h"

#include <algorithm>
#include <cassert>

namespace bouncer {

TenantFairPolicy::TenantFairPolicy(std::unique_ptr<AdmissionPolicy> inner,
                                   const PolicyContext& context,
                                   const Options& options)
    : inner_(std::move(inner)),
      tenants_(context.tenants),
      queue_(context.queue),
      options_(options),
      rng_(options.seed) {
  assert(inner_ != nullptr);
  assert(tenants_ != nullptr);
  assert(queue_ != nullptr);
  name_ = std::string(inner_->name()) + "+TenantFair";
  active_weight_.store(tenants_->TotalWeight(), std::memory_order_relaxed);
}

void TenantFairPolicy::RotateTo(Cell& cell, Nanos now) const {
  const Nanos step =
      options_.window_step > 0 ? options_.window_step : kMillisecond;
  const int64_t epoch = static_cast<int64_t>(now / step);
  int64_t seen = cell.epoch.load(std::memory_order_relaxed);
  if (seen >= epoch) return;
  if (!cell.epoch.compare_exchange_strong(seen, epoch,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
    return;  // Another thread rotates this step.
  }
  if (epoch == seen + 1) {
    cell.prev_received.store(
        cell.cur_received.exchange(0, std::memory_order_acq_rel),
        std::memory_order_release);
    cell.prev_admitted.store(
        cell.cur_admitted.exchange(0, std::memory_order_acq_rel),
        std::memory_order_release);
  } else {
    // The tenant idled across at least one full step: both buckets stale.
    cell.prev_received.store(0, std::memory_order_release);
    cell.prev_admitted.store(0, std::memory_order_release);
    cell.cur_received.store(0, std::memory_order_release);
    cell.cur_admitted.store(0, std::memory_order_release);
  }
}

int64_t TenantFairPolicy::WindowReceived(const Cell& cell) {
  return std::max<int64_t>(
      0, cell.cur_received.load(std::memory_order_relaxed) +
             cell.prev_received.load(std::memory_order_relaxed));
}

int64_t TenantFairPolicy::WindowAdmitted(const Cell& cell) {
  return std::max<int64_t>(
      0, cell.cur_admitted.load(std::memory_order_relaxed) +
             cell.prev_admitted.load(std::memory_order_relaxed));
}

double TenantFairPolicy::OverrideProbability(double admitted,
                                             double fair) const {
  if (fair <= 0.0 || admitted >= fair) return 0.0;
  const double x = (fair - admitted) / fair;  // x in (0, 1].
  return options_.alpha * x / (1.0 + x);
}

void TenantFairPolicy::MaybeRefreshAggregates(Nanos now) {
  const Nanos deadline = next_refresh_.load(std::memory_order_relaxed);
  if (now < deadline) return;
  std::unique_lock<std::mutex> lock(refresh_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return;  // Someone else is already scanning.
  if (now < next_refresh_.load(std::memory_order_relaxed)) return;
  const size_t n = tenants_->size();
  double weight = 0.0;
  double admitted = 0.0;
  for (size_t t = 0; t < n; ++t) {
    const Cell* cell = cells_.Find(static_cast<TenantId>(t));
    if (cell == nullptr) continue;
    // Stale cells (tenant idle for > a window) read as 0 after their
    // next rotation; counting them once more here only smooths the
    // transition.
    const int64_t received = WindowReceived(*cell);
    if (received == 0 && cell->queued.load(std::memory_order_relaxed) <= 0) {
      continue;  // Inactive: no demand, no share.
    }
    weight += tenants_->WeightOf(static_cast<TenantId>(t));
    admitted += static_cast<double>(WindowAdmitted(*cell));
  }
  if (weight <= 0.0) weight = tenants_->TotalWeight();
  active_weight_.store(weight, std::memory_order_relaxed);
  window_admitted_total_.store(admitted, std::memory_order_relaxed);
  const Nanos interval =
      options_.refresh_interval > 0 ? options_.refresh_interval : kMillisecond;
  next_refresh_.store(now + interval, std::memory_order_relaxed);
}

Decision TenantFairPolicy::Decide(WorkKey key, Nanos now) {
  Cell& cell = cells_.At(key.tenant);
  RotateTo(cell, now);
  MaybeRefreshAggregates(now);

  cell.total_received.fetch_add(1, std::memory_order_relaxed);
  cell.cur_received.fetch_add(1, std::memory_order_relaxed);

  // The tenant's weight lives in the registry's metadata chunks — a
  // second tenant-indexed cache line. Only the guard and override
  // branches need it, so the accept fast path never touches it.

  // Flood guard: under queue pressure a tenant gets at most `slack`
  // times its weighted share of the queue (plus the min_share floor).
  if (options_.flood_guard_limit > 0) {
    const uint64_t queue_len = queue_->TotalLength();
    if (queue_len >= options_.flood_guard_limit) {
      const double weight = tenants_->WeightOf(key.tenant);
      const double active_weight =
          std::max(active_weight_.load(std::memory_order_relaxed), weight);
      const double share =
          weight / active_weight * static_cast<double>(queue_len);
      const double cap = std::max(static_cast<double>(options_.min_share),
                                  options_.share_slack * share);
      const int64_t queued = cell.queued.load(std::memory_order_relaxed);
      if (static_cast<double>(queued) >= cap) {
        return Decision::kReject;
      }
    }
  }

  Decision decision = inner_->Decide(key, now);

  if (decision == Decision::kReject && options_.alpha > 0.0) {
    // Helping the underserved, tenant edition: admitted window count vs
    // the tenant's weighted share of everything admitted in the window.
    const double weight = tenants_->WeightOf(key.tenant);
    const double active_weight =
        std::max(active_weight_.load(std::memory_order_relaxed), weight);
    const double total =
        window_admitted_total_.load(std::memory_order_relaxed);
    const double fair = weight / active_weight * total;
    const double admitted = static_cast<double>(WindowAdmitted(cell));
    const double p = OverrideProbability(admitted, fair);
    if (p > 0.0) {
      bool pass = false;
      {
        std::lock_guard<std::mutex> lock(rng_mu_);
        pass = rng_.NextBernoulli(p);
      }
      if (pass) decision = Decision::kAccept;
    }
  }

  if (decision == Decision::kAccept) {
    cell.total_admitted.fetch_add(1, std::memory_order_relaxed);
    cell.cur_admitted.fetch_add(1, std::memory_order_relaxed);
  }
  return decision;
}

void TenantFairPolicy::OnEnqueued(WorkKey key, Nanos now) {
  if (options_.flood_guard_limit > 0) {
    cells_.At(key.tenant).queued.fetch_add(1, std::memory_order_relaxed);
  }
  inner_->OnEnqueued(key, now);
}

void TenantFairPolicy::OnDequeued(WorkKey key, Nanos wait_time, Nanos now) {
  if (options_.flood_guard_limit > 0) {
    cells_.At(key.tenant).queued.fetch_sub(1, std::memory_order_relaxed);
  }
  inner_->OnDequeued(key, wait_time, now);
}

void TenantFairPolicy::OnShedded(WorkKey key, Nanos now) {
  Cell& cell = cells_.At(key.tenant);
  if (options_.flood_guard_limit > 0) {
    cell.queued.fetch_sub(1, std::memory_order_relaxed);
  }
  // Retract the accept (current bucket: sheds follow their accept within
  // a step or miscount one event at a boundary — acceptable noise).
  cell.cur_admitted.fetch_sub(1, std::memory_order_relaxed);
  cell.total_admitted.fetch_sub(1, std::memory_order_relaxed);
  inner_->OnShedded(key, now);
}

TenantFairPolicy::TenantSnapshot TenantFairPolicy::Snapshot(
    TenantId tenant) const {
  TenantSnapshot snapshot;
  const Cell* cell = cells_.Find(tenant);
  if (cell == nullptr) return snapshot;
  snapshot.queued =
      std::max<int64_t>(0, cell->queued.load(std::memory_order_relaxed));
  snapshot.window_received = WindowReceived(*cell);
  snapshot.window_admitted = WindowAdmitted(*cell);
  snapshot.total_received =
      cell->total_received.load(std::memory_order_relaxed);
  snapshot.total_admitted = std::max<int64_t>(
      0, cell->total_admitted.load(std::memory_order_relaxed));
  return snapshot;
}

}  // namespace bouncer
