#ifndef BOUNCER_SERVER_METRICS_COLLECTOR_H_
#define BOUNCER_SERVER_METRICS_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/server/stage.h"
#include "src/stats/summary.h"

namespace bouncer::server {

/// Per-type report extracted from a MetricsCollector snapshot; times in
/// milliseconds.
struct TypeReport {
  uint64_t received = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t expired = 0;
  uint64_t completed = 0;
  double rejection_pct = 0.0;
  double rt_mean_ms = 0.0;
  double rt_p50_ms = 0.0;
  double rt_p90_ms = 0.0;
  double rt_p99_ms = 0.0;
  double pt_mean_ms = 0.0;
  double pt_p50_ms = 0.0;
  double pt_p90_ms = 0.0;
  /// Exact sum of processing time over completed items, in ns.
  int64_t pt_total_ns = 0;

  /// Total processing time spent on completed items, in ms — the busy
  /// time a worker pool charged to this type. Utilization over a window
  /// follows as BusyMs() / (workers * window_ms). Computed from the
  /// exactly-accumulated nanosecond sum, not mean * count: the mean is a
  /// double whose rounding error scales with the sample count, and this
  /// value feeds shard_utilization in the real-study cells.
  double BusyMs() const { return ToMillis(pt_total_ns); }
};

/// Thread-safe sink for Stage completion callbacks: counts outcomes and
/// collects response/processing-time samples per query type. Recording
/// can be toggled so warm-up traffic is excluded (paper §5.4 warms the
/// cluster for a minute before each run).
class MetricsCollector {
 public:
  explicit MetricsCollector(size_t num_types)
      : types_(num_types), recording_(true) {}

  /// Enables or disables sample/counter recording.
  void SetRecording(bool on) {
    recording_.store(on, std::memory_order_release);
  }
  bool recording() const { return recording_.load(std::memory_order_acquire); }

  /// Records one terminal outcome. Safe from any thread. Intended as the
  /// WorkItem::on_complete sink:
  ///   item.on_complete = [&](const WorkItem& w, Outcome o) {
  ///     collector.Record(w, o);
  ///   };
  /// Snapshot consistency: the terminal-outcome counter is bumped first
  /// and `received` last (release); Report()/Overall() read `received`
  /// first (acquire). A snapshot therefore never observes a torn per-type
  /// row where an item is counted as received but in no outcome bucket —
  /// rejected + expired + completed >= received always holds, with
  /// equality once recorders quiesce.
  void Record(const WorkItem& item, Outcome outcome) {
    if (!recording()) return;
    if (item.type >= types_.size()) return;
    PerType& t = types_[item.type];
    switch (outcome) {
      case Outcome::kRejected:
      case Outcome::kShedded:
        t.rejected.fetch_add(1, std::memory_order_relaxed);
        t.received.fetch_add(1, std::memory_order_release);
        return;
      case Outcome::kExpired:
        t.expired.fetch_add(1, std::memory_order_relaxed);
        t.received.fetch_add(1, std::memory_order_release);
        return;
      case Outcome::kCompleted:
        break;
    }
    t.completed.fetch_add(1, std::memory_order_relaxed);
    t.accepted.fetch_add(1, std::memory_order_relaxed);
    t.pt_total_ns.fetch_add(item.ProcessingTime(), std::memory_order_relaxed);
    t.received.fetch_add(1, std::memory_order_release);
    std::lock_guard<std::mutex> lock(t.mu);
    t.rt_ms.Add(ToMillis(item.ResponseTime()));
    t.pt_ms.Add(ToMillis(item.ProcessingTime()));
  }

  /// Builds the report for type `id`. Takes the type's sample lock.
  TypeReport Report(QueryTypeId id) {
    TypeReport r;
    if (id >= types_.size()) return r;
    PerType& t = types_[id];
    // Acquire on `received` pairs with the release increment in Record():
    // every outcome bump ordered before a counted `received` is visible
    // below, so the row is never torn (see Record()).
    r.received = t.received.load(std::memory_order_acquire);
    r.accepted = t.accepted.load(std::memory_order_relaxed);
    r.rejected = t.rejected.load(std::memory_order_relaxed);
    r.expired = t.expired.load(std::memory_order_relaxed);
    r.completed = t.completed.load(std::memory_order_relaxed);
    r.pt_total_ns = t.pt_total_ns.load(std::memory_order_relaxed);
    if (r.received > 0) {
      r.rejection_pct = 100.0 * static_cast<double>(r.rejected) /
                        static_cast<double>(r.received);
    }
    std::lock_guard<std::mutex> lock(t.mu);
    FillSampleStats(t.rt_ms, t.pt_ms, &r);
    return r;
  }

  /// Aggregated report across all types (percentiles pooled).
  TypeReport Overall() {
    TypeReport r;
    stats::SampleSummary all_rt;
    stats::SampleSummary all_pt;
    for (size_t i = 0; i < types_.size(); ++i) {
      PerType& t = types_[i];
      r.received += t.received.load(std::memory_order_acquire);
      r.accepted += t.accepted.load(std::memory_order_relaxed);
      r.rejected += t.rejected.load(std::memory_order_relaxed);
      r.expired += t.expired.load(std::memory_order_relaxed);
      r.completed += t.completed.load(std::memory_order_relaxed);
      r.pt_total_ns += t.pt_total_ns.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(t.mu);
      all_rt.Append(t.rt_ms);
      all_pt.Append(t.pt_ms);
    }
    if (r.received > 0) {
      r.rejection_pct = 100.0 * static_cast<double>(r.rejected) /
                        static_cast<double>(r.received);
    }
    FillSampleStats(all_rt, all_pt, &r);
    return r;
  }

  /// Clears all counters and samples.
  void Reset() {
    for (auto& t : types_) {
      t.received.store(0, std::memory_order_relaxed);
      t.accepted.store(0, std::memory_order_relaxed);
      t.rejected.store(0, std::memory_order_relaxed);
      t.expired.store(0, std::memory_order_relaxed);
      t.completed.store(0, std::memory_order_relaxed);
      t.pt_total_ns.store(0, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(t.mu);
      t.rt_ms.Clear();
      t.pt_ms.Clear();
    }
  }

  size_t num_types() const { return types_.size(); }

 private:
  /// Means first (in the current sample order), then the percentiles,
  /// whose selections reorder the samples.
  static void FillSampleStats(stats::SampleSummary& rt_ms,
                              stats::SampleSummary& pt_ms, TypeReport* r) {
    r->rt_mean_ms = rt_ms.Mean();
    r->pt_mean_ms = pt_ms.Mean();
    const std::vector<double> rt = rt_ms.Percentiles({0.50, 0.90, 0.99});
    r->rt_p50_ms = rt[0];
    r->rt_p90_ms = rt[1];
    r->rt_p99_ms = rt[2];
    const std::vector<double> pt = pt_ms.Percentiles({0.50, 0.90});
    r->pt_p50_ms = pt[0];
    r->pt_p90_ms = pt[1];
  }

  /// Padded to cache-line granularity: the per-type cells sit in one
  /// flat vector and every completion from every worker writes its
  /// type's cell, so adjacent hot types must not share a line.
  struct alignas(kCacheLineSize) PerType {
    std::atomic<uint64_t> received{0};
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> expired{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<int64_t> pt_total_ns{0};
    std::mutex mu;
    stats::SampleSummary rt_ms;
    stats::SampleSummary pt_ms;
  };

  std::vector<PerType> types_;
  std::atomic<bool> recording_;
};

}  // namespace bouncer::server

#endif  // BOUNCER_SERVER_METRICS_COLLECTOR_H_
