#ifndef BOUNCER_STATS_SUMMARY_H_
#define BOUNCER_STATS_SUMMARY_H_

#include <cstddef>
#include <vector>

namespace bouncer::stats {

/// Offline percentile/mean computation over a raw sample vector, used by
/// experiment harnesses to report exact (non-bucketed) statistics.
/// Quantiles use nearest-rank semantics and are answered by selection
/// (std::nth_element), O(n) per query instead of a full sort. Selection
/// reorders the stored samples but never changes their multiset, so the
/// k-th order statistic, and hence every quantile, is the one a sort
/// would give, to the bit.
class SampleSummary {
 public:
  SampleSummary() = default;

  /// Pre-allocates capacity for `n` samples.
  void Reserve(size_t n) { samples_.reserve(n); }

  /// Adds one sample.
  void Add(double value) { samples_.push_back(value); }

  /// Appends every sample of `other`, in its current order.
  void Append(const SampleSummary& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  /// Number of samples.
  size_t Count() const { return samples_.size(); }

  /// Mean of samples; 0 when empty. Sums in the current sample order, so
  /// call it before any quantile query when that order must be the
  /// insertion order.
  double Mean() const;

  /// Nearest-rank q-quantile, q in [0, 1]; 0 when empty. Not const:
  /// selection reorders the samples.
  double Percentile(double q);

  /// Nearest-rank quantile for each entry of `qs`, in the order given;
  /// all 0 when empty. The selections are chained in rank order, each
  /// searching only the part above the previous rank, so a few quantiles
  /// cost about as much as one. Reorders the samples like Percentile().
  std::vector<double> Percentiles(const std::vector<double>& qs);

  /// Largest sample; 0 when empty.
  double Max() const;

  /// Fraction of samples strictly greater than `threshold` (SLO-violation
  /// counting); 0 when empty.
  double FractionAbove(double threshold) const;

  /// Removes all samples.
  void Clear() { samples_.clear(); }

  /// Read-only access to the raw samples, in no particular order once a
  /// quantile has been queried.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace bouncer::stats

#endif  // BOUNCER_STATS_SUMMARY_H_
