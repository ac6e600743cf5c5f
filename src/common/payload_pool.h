// Per-endpoint recycling pool for codec payload buffers.
//
// Every payload-bearing transfer used to allocate (and immediately discard)
// one std::vector<uint8_t> per codec invocation. The pool keeps released
// buffers and hands their storage back out, so a sender's steady state is
// allocation-free: each policy warms one scratch buffer to the largest
// encoding it ever produces and reuses it for the rest of the run.
//
// The pool is size-classed: line-sized scratch (a few hundred bytes) and
// bulk block frames (up to a page plus framing) live on separate free
// lists, so the bulk fast path can never starve the line path of its warm
// buffers — and a line acquire never receives (and then regrows) a tiny
// buffer that a bulk caller will want back at page size.
//
// Not thread-safe by design: each RDMA engine owns its own pool (one per
// endpoint), matching the one-policy-per-sender structure, and a
// simulation runs on one thread.
#pragma once

#include <cstdint>
#include <vector>

namespace mgcomp {

class PayloadPool {
 public:
  /// Returns an empty buffer with at least `min_capacity` reserved, reusing
  /// the capacity of a released buffer from the matching size class when
  /// one is available. `min_capacity == 0` (the line path) draws from the
  /// small class without reserving.
  [[nodiscard]] std::vector<std::uint8_t> acquire(std::size_t min_capacity = 0) {
    std::vector<std::vector<std::uint8_t>>& cls = free_list(min_capacity);
    if (cls.empty()) {
      ++misses_;
      if (min_capacity > kSmallClassBytes) ++bulk_misses_;
      std::vector<std::uint8_t> buf;
      if (min_capacity > 0) buf.reserve(min_capacity);
      return buf;
    }
    ++hits_;
    std::vector<std::uint8_t> buf = std::move(cls.back());
    cls.pop_back();
    buf.clear();
    if (buf.capacity() < min_capacity) buf.reserve(min_capacity);
    return buf;
  }

  /// Returns `buf`'s storage to its size class. Capacity-less buffers are
  /// dropped (nothing to recycle); beyond kMaxFree per class the storage is
  /// simply freed.
  void release(std::vector<std::uint8_t>&& buf) {
    if (buf.capacity() == 0) return;
    std::vector<std::vector<std::uint8_t>>& cls = free_list(buf.capacity());
    if (cls.size() >= kMaxFree) return;
    cls.push_back(std::move(buf));
    cls.back().clear();
  }

  /// acquire() calls served from a recycled buffer.
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  /// acquire() calls that had to hand out a fresh buffer.
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  /// The subset of misses() asking for a bulk-sized (> kSmallClassBytes)
  /// buffer — the steady-state bulk path should drive this to a handful.
  [[nodiscard]] std::uint64_t bulk_misses() const noexcept { return bulk_misses_; }

  /// Capacity boundary between the two size classes: anything a line codec
  /// can emit fits well under this; block frames sit far above it.
  static constexpr std::size_t kSmallClassBytes = 512;

 private:
  /// More than any sender ever holds live at once (one scratch per policy
  /// plus headroom for future per-pipeline buffers).
  static constexpr std::size_t kMaxFree = 8;

  [[nodiscard]] std::vector<std::vector<std::uint8_t>>& free_list(
      std::size_t capacity) noexcept {
    return capacity > kSmallClassBytes ? bulk_free_ : small_free_;
  }

  std::vector<std::vector<std::uint8_t>> small_free_;
  std::vector<std::vector<std::uint8_t>> bulk_free_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
  std::uint64_t bulk_misses_{0};
};

}  // namespace mgcomp
