// Rank-indexed ready set of the paged parallel engine
// (simulate_parallel_paged).
//
// Priority keys are static per node, so the engine ranks every node once —
// priority descending, then reference position ascending, the order in
// which simulate_parallel_reference scans its sorted ready list — and list
// scheduling becomes a set of ranks. Each rank carries a fixed weight: the
// task's work_frames reservation. The one query the start rule needs is
//
//   first_fit(from, slack): the first ready rank >= from whose weight fits
//                           in `slack`,
//
// the best-priority startable task when `from` is the scan head. It costs
// one descent plus the scan of at most two 64-rank blocks, however many
// candidates before the answer do not fit — the memory-bounded list
// scheduling of Eyraud-Dubois, Marchal, Sinnen and Vivien (Parallel
// scheduling of task trees with limited memory, ACM TOPC 2015) with an
// O(log n) first-fit query.
//
// Layout. Membership is a bitmap of 64-rank blocks. A complete binary tree
// over the blocks (power-of-two leaves, padding leaves empty) holds each
// range's ready count and smallest ready weight, so first_fit descends to
// the first block that can fit and count() sums whole blocks in O(log n).
// The tree has one leaf per 64 ranks, so the whole structure is the weight
// array plus n/8 bytes of bitmap and a few KiB of tree.
//
// audit() recomputes every block count and minimum from the bitmap, like
// core::EvictionIndex::audit(); the engine calls it from its OOCTREE_AUDIT
// state sweep, and core::fault::parallel_engine bit 32 leaves a block
// minimum stale for tests/test_audit.cpp to convict.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/core/check.hpp"
#include "src/core/tree.hpp"

namespace ooctree::parallel {

class ReadyIndex {
 public:
  static constexpr std::size_t kBlock = 64;

  /// An empty set over ranks [0, weight.size()); weight[r] is rank r's
  /// reservation (work_frames).
  explicit ReadyIndex(std::vector<core::Weight> weight)
      : weight_(std::move(weight)), bits_((weight_.size() + kBlock - 1) / kBlock, 0) {
    while (leaves_ < bits_.size()) leaves_ *= 2;
    count_.assign(2 * leaves_, 0);
    min_.assign(2 * leaves_, kNone);
  }

  /// One past the last rank: the "not found" answer of every query.
  [[nodiscard]] std::size_t end() const { return weight_.size(); }
  [[nodiscard]] bool empty() const { return count_[1] == 0; }
  [[nodiscard]] bool contains(std::size_t r) const {
    return ((bits_[r / kBlock] >> (r % kBlock)) & 1U) != 0;
  }

  /// Marks rank r ready (no-op when it already is).
  void insert(std::size_t r) {
    if (contains(r)) return;
    bits_[r / kBlock] |= bit(r);
    const std::size_t leaf = leaves_ + r / kBlock;
    ++count_[leaf];
    min_[leaf] = std::min(min_[leaf], weight_[r]);
    pull(leaf);
  }

  /// Removes rank r from the ready set (no-op when it is not ready).
  void erase(std::size_t r) {
    if (!contains(r)) return;
    const std::size_t b = r / kBlock;
    bits_[b] &= ~bit(r);
    const std::size_t leaf = leaves_ + b;
    --count_[leaf];
    bool refresh = weight_[r] == min_[leaf];
#if OOCTREE_AUDIT_ENABLED
    // Test-only fault: skip the minimum refresh, leaving the block's
    // minimum stale (too small) — audit() must convict.
    if (core::fault::parallel_engine.load(std::memory_order_relaxed) & 32) refresh = false;
#endif
    if (refresh) min_[leaf] = block_min(b);
    pull(leaf);
  }

  /// The first ready rank >= from whose weight is <= slack, or end().
  [[nodiscard]] std::size_t first_fit(std::size_t from, core::Weight slack) const {
    if (from >= end()) return end();
    const std::size_t blocks = bits_.size();
    std::size_t b = from / kBlock;
    std::size_t r = scan_block(b, from % kBlock, slack);
    // With exact minima the first block find_block returns always holds a
    // fit; the loop only moves on past a stale minimum (see audit()).
    while (r == end() && (b = find_block(b + 1, slack)) < blocks) r = scan_block(b, 0, slack);
    return r;
  }

  /// The first ready rank >= from, or end().
  [[nodiscard]] std::size_t next(std::size_t from) const { return first_fit(from, kNone); }

  /// The number of ready ranks in [a, b) (0 when b <= a; both clamp to end()).
  [[nodiscard]] std::size_t count(std::size_t a, std::size_t b) const {
    a = std::min(a, end());
    b = std::min(b, end());
    return b > a ? prefix(b) - prefix(a) : 0;
  }

  /// Recomputes every block's count and minimum from the bitmap and every
  /// tree node from its children; throws core::AuditError on drift.
  void audit() const {
    for (std::size_t b = 0; b < leaves_; ++b) {
      const std::size_t leaf = leaves_ + b;
      const std::uint64_t word = b < bits_.size() ? bits_[b] : 0;
      if (b + 1 == bits_.size() && end() % kBlock != 0)
        core::audit_check((word >> (end() % kBlock)) == 0,
                          "ReadyIndex: a rank past end() is marked ready");
      core::audit_check(count_[leaf] == static_cast<std::size_t>(std::popcount(word)),
                        "ReadyIndex: block count disagrees with the bitmap");
      core::audit_check(min_[leaf] == (b < bits_.size() ? block_min(b) : kNone),
                        "ReadyIndex: stale block minimum");
    }
    for (std::size_t v = leaves_ - 1; v >= 1; --v) {
      core::audit_check(count_[v] == count_[2 * v] + count_[2 * v + 1],
                        "ReadyIndex: range count disagrees with its blocks");
      core::audit_check(min_[v] == std::min(min_[2 * v], min_[2 * v + 1]),
                        "ReadyIndex: range minimum disagrees with its blocks");
    }
  }

 private:
  static constexpr core::Weight kNone = std::numeric_limits<core::Weight>::max();

  static std::uint64_t bit(std::size_t r) { return std::uint64_t{1} << (r % kBlock); }

  // Tree node v can hold a fit: some rank below it is ready and weighs at
  // most `slack` (the count guard keeps kNone-weighted empty ranges out
  // when slack itself is kNone).
  [[nodiscard]] bool can_fit(std::size_t v, core::Weight slack) const {
    return count_[v] > 0 && min_[v] <= slack;
  }

  void pull(std::size_t v) {
    for (v /= 2; v >= 1; v /= 2) {
      count_[v] = count_[2 * v] + count_[2 * v + 1];
      min_[v] = std::min(min_[2 * v], min_[2 * v + 1]);
    }
  }

  [[nodiscard]] core::Weight block_min(std::size_t b) const {
    core::Weight m = kNone;
    for (std::uint64_t w = bits_[b]; w != 0; w &= w - 1)
      m = std::min(m, weight_[b * kBlock + static_cast<std::size_t>(std::countr_zero(w))]);
    return m;
  }

  // The first ready rank of block b at offset >= off with weight <= slack.
  [[nodiscard]] std::size_t scan_block(std::size_t b, std::size_t off, core::Weight slack) const {
    for (std::uint64_t w = bits_[b] & (~std::uint64_t{0} << off); w != 0; w &= w - 1) {
      const std::size_t r = b * kBlock + static_cast<std::size_t>(std::countr_zero(w));
      if (weight_[r] <= slack) return r;
    }
    return end();
  }

  // The first block >= lo whose range can fit `slack`, or bits_.size():
  // climb right from leaf lo until a subtree can fit, then descend to its
  // leftmost fitting leaf.
  [[nodiscard]] std::size_t find_block(std::size_t lo, core::Weight slack) const {
    if (lo >= bits_.size()) return bits_.size();
    std::size_t v = leaves_ + lo;
    while (!can_fit(v, slack)) {
      while ((v & 1U) != 0) v /= 2;  // a right child: its parent's range is done
      if (v == 0) return bits_.size();
      ++v;  // the next range to the right
    }
    while (v < leaves_) {
      v *= 2;
      if (!can_fit(v, slack)) ++v;
    }
    return v - leaves_;
  }

  // Ready ranks in [0, x), for x <= end().
  [[nodiscard]] std::size_t prefix(std::size_t x) const {
    const std::size_t b = x / kBlock;
    std::size_t c = 0;
    if (x % kBlock != 0)
      c = static_cast<std::size_t>(std::popcount(bits_[b] & (bit(x) - 1)));
    for (std::size_t lo = leaves_, hi = leaves_ + b; lo < hi; lo /= 2, hi /= 2) {
      if ((lo & 1U) != 0) c += count_[lo++];
      if ((hi & 1U) != 0) c += count_[--hi];
    }
    return c;
  }

  std::vector<core::Weight> weight_;  // per rank
  std::vector<std::uint64_t> bits_;   // ready bitmap, one word per block
  std::size_t leaves_ = 1;            // tree leaves: blocks rounded up to a power of two
  std::vector<std::size_t> count_;    // tree: ready ranks per range (root at 1)
  std::vector<core::Weight> min_;     // tree: smallest ready weight per range
};

}  // namespace ooctree::parallel
