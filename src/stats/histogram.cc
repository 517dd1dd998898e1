#include "src/stats/histogram.h"

#include <algorithm>
#include <cmath>

namespace bouncer::stats {

Histogram::Histogram() : buckets_(kBucketCount), sum_(0) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

int Histogram::BucketIndex(Nanos value) {
  if (value < 0) value = 0;
  if (value > kMaxValue) value = kMaxValue;
  if (value < kSubCount) return static_cast<int>(value);
  const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(value));
  const int octave = msb - kSubBits + 1;
  const int shift = msb - kSubBits;
  const auto sub = static_cast<int>((value >> shift) - kSubCount);
  return static_cast<int>(octave * kSubCount) + sub;
}

Nanos Histogram::BucketLowerBound(int index) {
  const int octave = index >> kSubBits;
  const int sub = index & (kSubCount - 1);
  if (octave == 0) return sub;
  return (kSubCount + sub) << (octave - 1);
}

Nanos Histogram::BucketMidpoint(int index) {
  const int octave = index >> kSubBits;
  const Nanos lower = BucketLowerBound(index);
  const Nanos width = octave == 0 ? 1 : (Nanos{1} << (octave - 1));
  return lower + width / 2;
}

void Histogram::Record(Nanos value) {
  if (value < 0) value = 0;
  if (value > kMaxValue) value = kMaxValue;
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_release);
}

uint64_t Histogram::Count() const {
  uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_acquire);
  return n;
}

Nanos Histogram::Mean() const {
  const uint64_t n = Count();
  if (n == 0) return 0;
  return sum_.load(std::memory_order_relaxed) / static_cast<int64_t>(n);
}

Nanos Histogram::Percentile(double q) const {
  const uint64_t n = Count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
  uint64_t cumulative = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= target) return BucketMidpoint(i);
  }
  return kMaxValue;
}

HistogramSummary Histogram::MakeSummary(uint64_t count) const {
  HistogramSummary s;
  s.count = count;
  if (s.count == 0) return s;
  s.mean = sum_.load(std::memory_order_relaxed) /
           static_cast<int64_t>(s.count);
  const double n = static_cast<double>(s.count);
  const auto t50 = static_cast<uint64_t>(std::max(1.0, std::ceil(0.50 * n)));
  const auto t90 = static_cast<uint64_t>(std::max(1.0, std::ceil(0.90 * n)));
  const auto t99 = static_cast<uint64_t>(std::max(1.0, std::ceil(0.99 * n)));
  uint64_t cumulative = 0;
  bool done50 = false, done90 = false;
  for (int i = 0; i < kBucketCount; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    cumulative += c;
    if (!done50 && cumulative >= t50) {
      s.p50 = BucketMidpoint(i);
      done50 = true;
    }
    if (!done90 && cumulative >= t90) {
      s.p90 = BucketMidpoint(i);
      done90 = true;
    }
    if (cumulative >= t99) {
      s.p99 = BucketMidpoint(i);
      return s;
    }
  }
  // Concurrent writes may leave the pass short of the targets; fall back to
  // the largest populated bucket semantics.
  if (!done50) s.p50 = s.mean;
  if (!done90) s.p90 = s.p50;
  if (s.p99 == 0) s.p99 = s.p90;
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

}  // namespace bouncer::stats
