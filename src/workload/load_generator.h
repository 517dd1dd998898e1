#ifndef BOUNCER_WORKLOAD_LOAD_GENERATOR_H_
#define BOUNCER_WORKLOAD_LOAD_GENERATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/rng.h"
#include "src/util/time.h"
#include "src/workload/workload_spec.h"

namespace bouncer::workload {

/// Open-loop load generator modeled on the paper's modified wrk2 (§5.4):
/// it emits queries at a user-given average rate with exponential
/// inter-departure times (Poisson traffic, emulating burstiness), drawing
/// each query's type from the mix proportions. Departures follow an
/// absolute schedule, so a slow sink does not throttle the offered load
/// (no coordinated omission).
class LoadGenerator {
 public:
  struct Options {
    double rate_qps = 1000.0;      ///< Average offered rate.
    Nanos duration = 10 * kSecond; ///< Send window per Run().
    uint64_t seed = 7;
    size_t num_threads = 1;  ///< Rate is split evenly across threads.
  };

  /// Receives the sampled workload type index for each departure and is
  /// responsible for submitting the query (must not block for long).
  /// `due` is the departure's scheduled time on SystemClock's timeline;
  /// a generator running behind calls the sink after it, and latency
  /// measured from `due` stays free of coordinated omission.
  using Sink = std::function<void(size_t type_index, Nanos due)>;

  /// `mix` must outlive the generator.
  LoadGenerator(const WorkloadSpec* mix, const Options& options, Sink sink)
      : mix_(mix), options_(options), sink_(std::move(sink)) {}

  /// Sends traffic for the configured duration; blocks until done.
  /// Returns the number of queries emitted.
  uint64_t Run();

  /// Requests an early stop of a Run() in progress (from another thread).
  void RequestStop() { stop_.store(true, std::memory_order_release); }

 private:
  void GeneratorThread(size_t thread_index, std::atomic<uint64_t>* sent);

  const WorkloadSpec* mix_;
  Options options_;
  Sink sink_;
  std::atomic<bool> stop_{false};
};

}  // namespace bouncer::workload

#endif  // BOUNCER_WORKLOAD_LOAD_GENERATOR_H_
