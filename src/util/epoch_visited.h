#ifndef BOUNCER_UTIL_EPOCH_VISITED_H_
#define BOUNCER_UTIL_EPOCH_VISITED_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace bouncer {

/// Reusable membership set over a dense uint32 id space, for hot loops
/// that would otherwise build a fresh std::set / sorted vector per call
/// (2-hop dedup, BFS visited tracking). Each slot stores the epoch at
/// which its id was last marked; NextEpoch() invalidates every mark in
/// O(1) by bumping the current epoch, so steady-state use allocates
/// nothing and clears nothing. The stamp array is zeroed only on growth
/// and on the (once per ~4 billion epochs) counter wrap.
///
/// Not thread-safe; intended as per-worker scratch.
class EpochVisitedSet {
 public:
  /// Starts a new membership set; previous marks become stale.
  void NextEpoch(size_t universe_size) {
    if (stamps_.size() < universe_size) {
      stamps_.resize(universe_size, 0);
    }
    if (++epoch_ == 0) {  // Wrapped: stale stamps could alias epoch 0.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Marks `id`; returns true when `id` was not yet in the current set.
  bool Insert(uint32_t id) {
    if (id >= stamps_.size()) stamps_.resize(size_t{id} + 1, 0);
    if (stamps_[id] == epoch_) return false;
    stamps_[id] = epoch_;
    return true;
  }

  /// True when `id` is in the current set.
  bool Contains(uint32_t id) const {
    return id < stamps_.size() && stamps_[id] == epoch_;
  }

  size_t universe_size() const { return stamps_.size(); }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

}  // namespace bouncer

#endif  // BOUNCER_UTIL_EPOCH_VISITED_H_
