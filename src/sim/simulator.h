#ifndef BOUNCER_SIM_SIMULATOR_H_
#define BOUNCER_SIM_SIMULATOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/core/admission_policy.h"
#include "src/core/policy_factory.h"
#include "src/core/query_type_registry.h"
#include "src/core/queue_state.h"
#include "src/stats/histogram.h"
#include "src/stats/summary.h"
#include "src/util/rng.h"
#include "src/workload/workload_spec.h"

namespace bouncer::sim {

/// Order in which admitted queries leave the queue. The paper's systems
/// process queries in FIFO order; evaluating other disciplines is listed
/// as future work (§7) and supported here.
enum class QueueDiscipline : uint8_t {
  kFifo = 0,
  /// Non-preemptive shortest-job-first on the type's mean processing
  /// time (the discipline Gatekeeper uses, paper §6); FIFO within a type.
  kShortestJobFirst = 1,
  /// Per-type priorities (lower value = served first); FIFO within a
  /// priority level.
  kPriority = 2,
};

/// How the simulator summarizes per-query rt/pt/wt measurements.
enum class StatsMode : uint8_t {
  /// Raw samples, exact percentiles. Memory is ~8 bytes per measured
  /// query per series — the default, and what EXPERIMENTS.md numbers use.
  kExactSamples = 0,
  /// Streaming stats::Histogram per series: constant memory per cell
  /// (~9 KB per histogram) at the histogram's ~3% relative percentile
  /// error. For paper-scale sweeps where exactness is not needed.
  kStreamingSummary = 1,
  /// No latency series at all; counters and utilization only.
  kNone = 2,
};

/// Simulation parameters (paper §5.3): a host with P query engine
/// processes fed by open-loop Poisson traffic drawn from a typed mix.
struct SimulationConfig {
  size_t parallelism = 100;        ///< P query engine processes.
  double arrival_rate_qps = 0.0;   ///< Offered load λ.
  uint64_t total_queries = 1'500'000;  ///< Arrivals generated per run.
  /// Arrivals excluded from metrics while histograms and windows warm up.
  uint64_t warmup_queries = 100'000;
  uint64_t seed = 1;
  StatsMode stats_mode = StatsMode::kExactSamples;
  /// Relative deadline clients give their queries (0 = none). A query
  /// still queued past its deadline is dropped without processing
  /// (expired); one that completes past it was processed uselessly —
  /// the wasted work the paper's §2 motivates early rejection with.
  Nanos deadline = 0;
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  /// For kPriority: priority per workload type index (missing = 0).
  std::vector<int> type_priorities;
};

/// Per-type outcome of a run. Times are reported in milliseconds.
struct TypeStats {
  std::string name;
  uint64_t received = 0;   ///< Measured arrivals of this type.
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  /// Admitted but dropped unprocessed: the deadline passed in the queue.
  uint64_t expired = 0;
  /// Completed after the deadline: processed, but the client had given up.
  uint64_t useless = 0;
  double rejection_pct = 0.0;  ///< 100 * rejected / received.
  double rt_mean_ms = 0.0;
  double rt_p50_ms = 0.0;
  double rt_p90_ms = 0.0;
  double rt_p99_ms = 0.0;
  double pt_p50_ms = 0.0;  ///< Median processing time of serviced queries.
  double pt_p90_ms = 0.0;
  double wt_p50_ms = 0.0;  ///< Median queue wait of serviced queries.
};

/// Result of one simulation run.
struct SimulationResult {
  std::vector<TypeStats> per_type;  ///< Index-aligned with the workload.
  TypeStats overall;                ///< Aggregated across types.
  double utilization = 0.0;  ///< Busy-process-time / (P × measured span).
  double measured_seconds = 0.0;  ///< Span of the measurement window.
  double offered_qps = 0.0;       ///< Configured arrival rate.
  /// Fraction of total processing time spent on queries that completed
  /// past their deadline (0 when no deadline is configured).
  double wasted_work_fraction = 0.0;
  /// Discrete events (arrivals + completions) the run processed; the
  /// numerator of the events/sec throughput the sim bench tracks.
  uint64_t events_processed = 0;
};

/// Discrete-event simulator of the admission-control framework in paper
/// Fig. 1 — the C++ rebuild of the paper's Python simulator (§5.3). It
/// models an ideal parallel query engine: P processes take admitted
/// queries from one FIFO queue first-come first-served; processing times
/// are sampled from the workload's per-type lognormal distributions;
/// inter-arrival times are exponential.
///
/// The simulator owns the registry (types from the workload spec), the
/// QueueState, and the policy built from a PolicyConfig; `now` flows from
/// event timestamps into the policy, so the same policy code runs under
/// simulated and wall-clock time.
class Simulator {
 public:
  /// Observer invoked every `interval` of simulated time; receives the
  /// current simulated time. Use policy() to inspect estimates.
  using TickCallback = std::function<void(Nanos now)>;

  Simulator(const workload::WorkloadSpec& workload,
            const SimulationConfig& config, const PolicyConfig& policy_config);

  /// Registers a periodic observer. Must be called before Run().
  void SetTickCallback(Nanos interval, TickCallback callback);

  /// Runs the simulation to completion and returns aggregated metrics.
  SimulationResult Run();

  /// The policy under test (valid after construction).
  AdmissionPolicy* policy() { return policy_.get(); }
  const QueryTypeRegistry& registry() const { return registry_; }

  /// Measured per-type counters so far (valid during tick callbacks):
  /// {received, rejected} for workload type index `i`.
  std::pair<uint64_t, uint64_t> LiveTypeCounts(size_t i) const;

 private:
  struct InFlight {
    uint32_t type_index;  ///< Workload spec index.
    Nanos enqueued;
    Nanos dequeued;
    Nanos processing;
    bool measured;
  };

  struct Event {
    Nanos time;
    enum class Kind : uint8_t { kArrival, kCompletion } kind;
    uint64_t completion_id;  ///< Index into in-flight slab for completions.

    friend bool operator>(const Event& a, const Event& b) {
      return a.time > b.time;
    }
  };

  void HandleArrival(Nanos now);
  void StartNext(Nanos now);
  void HandleCompletion(Nanos now, uint64_t id);
  void AccumulateBusy(Nanos now);
  void RecordLatencies(const InFlight& rec);

  workload::WorkloadSpec workload_;
  SimulationConfig config_;
  QueryTypeRegistry registry_;
  std::vector<QueryTypeId> type_ids_;  ///< Workload index -> QueryTypeId.
  QueueState queue_state_;
  std::unique_ptr<AdmissionPolicy> policy_;
  Rng rng_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  struct QueuedQuery {
    uint32_t type_index;
    Nanos enqueued;
    bool measured;
    int64_t order_key;  ///< Discipline key; ties broken by sequence.
    uint64_t sequence;

    friend bool operator>(const QueuedQuery& a, const QueuedQuery& b) {
      if (a.order_key != b.order_key) return a.order_key > b.order_key;
      return a.sequence > b.sequence;
    }
  };

  /// Power-of-two ring buffer of admitted queries. Under kFifo every
  /// order_key is 0 and sequences ascend with arrival, so the heap's
  /// (order_key, sequence) min-order *is* insertion order — a ring gives
  /// the same pop sequence with O(1) push/pop and no sift-down, which is
  /// most of the win at overload where the backlog runs to thousands.
  class FifoRing {
   public:
    void Reserve(size_t n) {
      if (n > slots_.size()) Rebuild(n);
    }
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    void push(const QueuedQuery& q) {
      if (size_ == slots_.size()) Rebuild(size_ * 2);
      slots_[(head_ + size_) & mask_] = q;
      ++size_;
    }
    const QueuedQuery& front() const { return slots_[head_]; }
    void pop() {
      head_ = (head_ + 1) & mask_;
      --size_;
    }

   private:
    void Rebuild(size_t capacity);

    std::vector<QueuedQuery> slots_;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  // The admitted-query queue: the ring when the discipline is FIFO (the
  // paper's default everywhere), the heap otherwise. These helpers are
  // the only accessors, so the two paths cannot diverge structurally.
  bool QueueEmpty() const {
    return use_fifo_ring_ ? fifo_queue_.empty() : heap_queue_.empty();
  }
  void QueuePush(const QueuedQuery& q) {
    if (use_fifo_ring_) {
      fifo_queue_.push(q);
    } else {
      heap_queue_.push(q);
    }
  }
  QueuedQuery QueuePop() {
    if (use_fifo_ring_) {
      const QueuedQuery q = fifo_queue_.front();
      fifo_queue_.pop();
      return q;
    }
    const QueuedQuery q = heap_queue_.top();
    heap_queue_.pop();
    return q;
  }

  /// Min-heap on (order_key, sequence): pure FIFO when all keys equal.
  std::priority_queue<QueuedQuery, std::vector<QueuedQuery>,
                      std::greater<QueuedQuery>>
      heap_queue_;
  FifoRing fifo_queue_;
  bool use_fifo_ring_ = false;
  std::vector<int64_t> order_keys_;  ///< Per workload type index.
  uint64_t next_sequence_ = 0;
  std::vector<InFlight> in_flight_;
  std::vector<uint64_t> free_slots_;
  size_t busy_ = 0;

  uint64_t generated_ = 0;
  uint64_t events_processed_ = 0;

  // Measurement state. The latency series live in exactly one of two
  // representations, per config_.stats_mode: raw SampleSummary vectors
  // (exact percentiles, ~8 B/query) or streaming Histograms (constant
  // memory, ~3% relative error). Histograms are heap-allocated because
  // stats::Histogram is non-movable (atomic buckets).
  struct TypeCounters {
    uint64_t received = 0;
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t expired = 0;
    uint64_t useless = 0;
    stats::SampleSummary rt_ms;
    stats::SampleSummary pt_ms;
    stats::SampleSummary wt_ms;
    std::unique_ptr<stats::Histogram> rt_hist;
    std::unique_ptr<stats::Histogram> pt_hist;
    std::unique_ptr<stats::Histogram> wt_hist;
  };
  std::vector<TypeCounters> counters_;
  std::unique_ptr<stats::Histogram> all_rt_hist_;
  std::unique_ptr<stats::Histogram> all_pt_hist_;
  Nanos measure_start_ = -1;
  Nanos last_busy_change_ = 0;
  double busy_integral_ns_ = 0.0;  // sum busy_count * dt, within window.
  Nanos last_arrival_time_ = 0;
  double total_work_ns_ = 0.0;   // Processing time spent (measured).
  double wasted_work_ns_ = 0.0;  // ... on queries past their deadline.

  Nanos tick_interval_ = 0;
  TickCallback tick_callback_;
  Nanos next_tick_ = 0;
};

}  // namespace bouncer::sim

#endif  // BOUNCER_SIM_SIMULATOR_H_
