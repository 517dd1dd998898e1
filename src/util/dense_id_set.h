#ifndef BOUNCER_UTIL_DENSE_ID_SET_H_
#define BOUNCER_UTIL_DENSE_ID_SET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace bouncer {

/// Reusable set of uint32 ids over a dense universe [0, universe), for
/// per-worker hot loops (gathered-neighbour dedup, BFS visited tracking,
/// adjacency intersection). One bit per id in a word array sized once to
/// ceil(universe / 64) words — 6.25 KB for 50k ids, so it stays in L1.
/// A touched-word list keeps Reset(), size() and AppendTo() at O(words
/// touched), never O(universe / 64): a set of a few dozen ids costs a few
/// dozen ids' work.
///
/// Ids >= universe (delta edges to vertices past the snapshot, ids from
/// the wire) are members too, but never size the bit array: they go to a
/// side vector that is sorted and deduplicated when counted or emitted.
///
/// Not thread-safe; intended as per-worker scratch.
class DenseIdSet {
 public:
  /// Empties the set and sets its universe to [0, universe).
  void Reset(uint32_t universe) {
    Clear();
    // One word past the last id word is the spill word InsertAll() aims
    // out-of-universe ids at; it never gets a bit.
    const size_t needed = (size_t{universe} + 63) / 64 + 1;
    if (words_.size() < needed) {
      words_.resize(needed, 0);
      // InsertAll() stores the next touched slot unconditionally, so the
      // list holds one entry per word.
      touched_.resize(needed);
    }
    universe_ = universe;
  }

  /// Adds every id of `ids`, one OR per id and no data-dependent branch
  /// for ids inside the universe.
  void InsertAll(std::span<const uint32_t> ids) {
    // Locals, not members: a store through `words` (uint64_t) or
    // `touched` (uint32_t) could otherwise alias them and force reloads.
    uint64_t* const words = words_.data();
    uint32_t* const touched = touched_.data();
    const uint32_t universe = universe_;
    const uint32_t spill = static_cast<uint32_t>(words_.size() - 1);
    size_t n = num_touched_;
    bool any_outside = false;
    for (const uint32_t u : ids) {
      const bool in = u < universe;
      const uint32_t w = in ? u >> 6 : spill;
      const uint64_t old = words[w];
      words[w] = old | (uint64_t{in} << (u & 63));
      touched[n] = w;
      n += (old == 0) & in;
      any_outside |= !in;
    }
    num_touched_ = n;
    if (any_outside) [[unlikely]] {
      for (const uint32_t u : ids) {
        if (u >= universe) outside_.push_back(u);
      }
    }
  }

  /// Adds `id`; returns true when it was not yet a member.
  bool Insert(uint32_t id) {
    if (id >= universe_) [[unlikely]] {
      if (ContainsOutside(id)) return false;
      outside_.push_back(id);
      return true;
    }
    const uint64_t bit = uint64_t{1} << (id & 63);
    const uint64_t old = words_[id >> 6];
    words_[id >> 6] = old | bit;
    touched_[num_touched_] = id >> 6;
    num_touched_ += old == 0;
    return (old & bit) == 0;
  }

  bool Contains(uint32_t id) const {
    if (id >= universe_) [[unlikely]] return ContainsOutside(id);
    return (words_[id >> 6] >> (id & 63)) & 1;
  }

  /// Number of members.
  size_t size() {
    NormalizeOutside();
    size_t count = outside_.size();
    for (size_t i = 0; i < num_touched_; ++i) {
      count += std::popcount(words_[touched_[i]]);
    }
    return count;
  }

  /// Appends up to `max_ids` members to `out`: every member, in
  /// unspecified order, when there are at most `max_ids`; otherwise the
  /// `max_ids` smallest, in ascending order.
  void AppendTo(size_t max_ids, std::vector<uint32_t>* out) {
    const size_t total = size();
    if (total > max_ids) {
      // Ascending word order emits ascending ids; out-of-universe ids
      // (sorted by size()) are larger than every id in the bit array.
      std::sort(touched_.begin(), touched_.begin() + num_touched_);
    }
    const size_t base = out->size();
    out->resize(base + std::min(total, max_ids));
    uint32_t* dst = out->data() + base;
    uint32_t* const end = out->data() + out->size();
    for (size_t i = 0; i < num_touched_ && dst != end; ++i) {
      const uint32_t w = touched_[i];
      for (uint64_t bits = words_[w]; bits != 0 && dst != end;
           bits &= bits - 1) {
        *dst++ = (w << 6) | static_cast<uint32_t>(std::countr_zero(bits));
      }
    }
    for (size_t i = 0; dst != end; ++i) *dst++ = outside_[i];
  }

 private:
  void Clear() {
    for (size_t i = 0; i < num_touched_; ++i) words_[touched_[i]] = 0;
    num_touched_ = 0;
    outside_.clear();
  }

  bool ContainsOutside(uint32_t id) const {
    return std::find(outside_.begin(), outside_.end(), id) != outside_.end();
  }

  void NormalizeOutside() {
    if (outside_.empty()) return;
    std::sort(outside_.begin(), outside_.end());
    outside_.erase(std::unique(outside_.begin(), outside_.end()),
                   outside_.end());
  }

  // Before the first Reset() the universe is empty and words_ holds just
  // the spill word.
  std::vector<uint64_t> words_ = std::vector<uint64_t>(1);
  std::vector<uint32_t> touched_ = std::vector<uint32_t>(1);  ///< Word ids.
  size_t num_touched_ = 0;
  uint32_t universe_ = 0;
  std::vector<uint32_t> outside_;  ///< Members >= universe_.
};

}  // namespace bouncer

#endif  // BOUNCER_UTIL_DENSE_ID_SET_H_
