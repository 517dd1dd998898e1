#include "src/workload/load_generator.h"

#include <chrono>

namespace bouncer::workload {

void LoadGenerator::GeneratorThread(size_t thread_index,
                                    std::atomic<uint64_t>* sent) {
  using SteadyClock = std::chrono::steady_clock;
  Rng rng(options_.seed + thread_index * 0x9e37ULL);
  const double thread_rate =
      options_.rate_qps / static_cast<double>(options_.num_threads);
  if (thread_rate <= 0.0) return;
  const double mean_gap_ns = static_cast<double>(kSecond) / thread_rate;

  const auto start = SteadyClock::now();
  const auto end = start + std::chrono::nanoseconds(options_.duration);
  auto next = start;
  uint64_t emitted = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    next += std::chrono::nanoseconds(
        std::max<Nanos>(1, static_cast<Nanos>(
                               rng.NextExponential(mean_gap_ns))));
    if (next >= end) break;
    // Absolute schedule: if we are behind, fire immediately; the backlog
    // drains at full speed, preserving the offered rate on average.
    if (next > SteadyClock::now()) {
      std::this_thread::sleep_until(next);
    }
    sink_(mix_->SampleType(rng),
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              next.time_since_epoch())
              .count());
    ++emitted;
  }
  sent->fetch_add(emitted, std::memory_order_relaxed);
}

uint64_t LoadGenerator::Run() {
  stop_.store(false, std::memory_order_release);
  std::atomic<uint64_t> sent{0};
  if (options_.num_threads <= 1) {
    GeneratorThread(0, &sent);
    return sent.load(std::memory_order_relaxed);
  }
  std::vector<std::thread> threads;
  threads.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    threads.emplace_back([this, i, &sent] { GeneratorThread(i, &sent); });
  }
  for (auto& t : threads) t.join();
  return sent.load(std::memory_order_relaxed);
}

}  // namespace bouncer::workload
