#ifndef BOUNCER_STATS_HISTOGRAM_H_
#define BOUNCER_STATS_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/util/time.h"

namespace bouncer::stats {

/// Compact value summary extracted from a histogram at swap time. This is
/// what the admission decision path actually reads: O(1), no bucket walk.
struct HistogramSummary {
  uint64_t count = 0;  ///< Number of recorded samples.
  Nanos mean = 0;      ///< Mean sample value.
  Nanos p50 = 0;       ///< Median.
  Nanos p90 = 0;       ///< 90th percentile.
  Nanos p99 = 0;       ///< 99th percentile.

  bool empty() const { return count == 0; }
};

/// Lock-free fixed-layout latency histogram over nanosecond values.
///
/// Buckets are HdrHistogram-style: exact for values < 2^kSubBits, then
/// geometric octaves each split into 2^kSubBits sub-buckets, giving a
/// bounded ~3% relative error — far below the estimate error Bouncer
/// already tolerates (paper §3 trades accuracy for speed). Record() is an
/// atomic add to the sum plus one bucket increment, safe from any number
/// of threads; the sample count is the bucket total. Aggregate reads
/// (Mean / Percentile / MakeSummary) are approximate under concurrent
/// writes; Bouncer only reads them at dual-buffer swap time when the
/// buffer is quiescent.
class Histogram {
 public:
  /// Sub-bucket resolution: 2^kSubBits sub-buckets per octave.
  static constexpr int kSubBits = 5;
  static constexpr int64_t kSubCount = int64_t{1} << kSubBits;
  /// Largest trackable value (~18.3 minutes); larger samples clamp.
  static constexpr Nanos kMaxValue = (Nanos{1} << 40) - 1;
  static constexpr int kMaxOctave = 40 - kSubBits;  // Octaves above exact range.
  static constexpr int kBucketCount =
      static_cast<int>((kMaxOctave + 1) * kSubCount);

  Histogram();

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one sample. Negative values clamp to 0, values above
  /// kMaxValue clamp to kMaxValue. Thread-safe, wait-free. The bucket
  /// increment comes last, with release order: a reader that sees it
  /// (Count() loads with acquire) also sees the sample in the sum.
  void Record(Nanos value);

  /// Number of samples recorded: a pass over the buckets.
  uint64_t Count() const;

  /// Mean of recorded samples (0 when empty). Exact (uses the true sum,
  /// not bucket midpoints).
  Nanos Mean() const;

  /// Approximate q-quantile, q in [0, 1]; returns 0 when empty.
  Nanos Percentile(double q) const;

  /// Extracts count/mean/p50/p90/p99: Count(), then one bucket pass.
  HistogramSummary MakeSummary() const { return MakeSummary(Count()); }
  /// The same for a caller that already knows the count (the dual
  /// buffer's swap), in the one bucket pass.
  HistogramSummary MakeSummary(uint64_t count) const;

  /// Clears all buckets. Not linearizable against concurrent Record();
  /// callers must quiesce writers first (the dual-buffer does).
  void Reset();

  /// Index of the bucket holding `value` (clamped). Exposed for tests.
  static int BucketIndex(Nanos value);
  /// Inclusive lower bound of bucket `index`.
  static Nanos BucketLowerBound(int index);
  /// Representative (midpoint) value of bucket `index`.
  static Nanos BucketMidpoint(int index);

 private:
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<int64_t> sum_;
};

}  // namespace bouncer::stats

#endif  // BOUNCER_STATS_HISTOGRAM_H_
