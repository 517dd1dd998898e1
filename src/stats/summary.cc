#include "src/stats/summary.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace bouncer::stats {

namespace {

/// 1-based nearest rank of quantile `q` among `n` > 0 samples.
size_t NearestRank(double q, size_t n) {
  q = std::clamp(q, 0.0, 1.0);
  return static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
}

}  // namespace

double SampleSummary::Mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double SampleSummary::Percentile(double q) { return Percentiles({q})[0]; }

std::vector<double> SampleSummary::Percentiles(const std::vector<double>& qs) {
  std::vector<double> out(qs.size(), 0.0);
  if (samples_.empty()) return out;
  std::vector<size_t> by_rank(qs.size());
  std::iota(by_rank.begin(), by_rank.end(), size_t{0});
  std::sort(by_rank.begin(), by_rank.end(), [&qs](size_t a, size_t b) {
    return qs[a] < qs[b];
  });
  // After nth_element at index k, every sample past k is >= samples_[k],
  // so the next (higher) rank need only be searched for past k.
  const size_t n = samples_.size();
  auto first = samples_.begin();
  for (const size_t i : by_rank) {
    const auto nth = samples_.begin() + (NearestRank(qs[i], n) - 1);
    if (nth >= first) {
      std::nth_element(first, nth, samples_.end());
      first = nth + 1;
    }
    out[i] = *nth;
  }
  return out;
}

double SampleSummary::Max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSummary::FractionAbove(double threshold) const {
  if (samples_.empty()) return 0.0;
  size_t above = 0;
  for (double v : samples_) {
    if (v > threshold) ++above;
  }
  return static_cast<double>(above) / static_cast<double>(samples_.size());
}

}  // namespace bouncer::stats
