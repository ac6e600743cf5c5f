// Set-associative tag-array cache model with true-LRU replacement.
//
// Caches here are *timing* models: they track presence (hit/miss) only.
// Functional data always lives in GlobalMemory, so tag-only caches keep the
// simulator fast while producing the traffic filtering that matters — a
// line fetched remotely once and re-read from L1 does not hit the fabric
// again. Both reads and writes allocate on a miss (write-allocate); the
// GPU writes through to the owner, so a cache never holds dirty data (see
// `access` and Gpu::access).
//
// Layout: each way is 16 bytes, {tag, stamp}, where the stamp is the
// cache's access clock at the way's last hit or fill. Each set carries
// {epoch, fill}: ways [0, fill) hold lines and the rest are empty. There
// is no valid bit.
//
// Flush: invalidate_all() only increments the cache's epoch, so a GPU's
// kernel-boundary flush costs one increment per cache whatever its size.
// A set whose epoch is stale reads as empty and is reset (fill = 0) by
// its next access.
//
// Fill order: a miss fills way `fill` while the set has room, and a full
// set evicts the way with the smallest stamp. Stamps are unique, so the
// hits, misses, LRU victims and stats are those of a true-LRU cache; only
// the physical way a line lands in is fixed by this order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace mgcomp {

/// Statistics one cache keeps about itself.
struct CacheStats {
  std::uint64_t read_hits{0};
  std::uint64_t read_misses{0};
  std::uint64_t write_hits{0};
  std::uint64_t write_misses{0};

  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return read_hits + read_misses + write_hits + write_misses;
  }
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(read_hits + write_hits) / static_cast<double>(a);
  }
};

class Cache {
 public:
  /// `size_bytes` must be a multiple of `ways * kLineBytes`.
  Cache(std::size_t size_bytes, std::uint32_t ways)
      : ways_(ways), num_sets_(size_bytes / (static_cast<std::size_t>(ways) * kLineBytes)) {
    MGCOMP_CHECK(ways_ > 0 && num_sets_ > 0);
    MGCOMP_CHECK_MSG(size_bytes == num_sets_ * ways_ * kLineBytes,
                     "cache size must be sets*ways*64");
    sets_.resize(num_sets_);
    lines_.resize(num_sets_ * ways_);
  }

  /// Looks up the line containing `addr`; on miss, allocates it (evicting
  /// LRU). Returns true on hit. `is_write` only affects the stats split;
  /// both reads and writes allocate (write-allocate, matching GPU L1/L2
  /// sector behavior closely enough for traffic purposes).
  bool access(Addr addr, bool is_write) {
    const Addr tag = line_base(addr);
    const std::size_t s = set_of(tag);
    Set& set = sets_[s];
    if (set.epoch != epoch_) {
      set.epoch = epoch_;
      set.fill = 0;
    }
    Way* base = &lines_[s * ways_];

    for (std::uint32_t w = 0; w < set.fill; ++w) {
      if (base[w].tag == tag) {
        base[w].stamp = ++clock_;
        if (is_write) {
          ++stats_.write_hits;
        } else {
          ++stats_.read_hits;
        }
        return true;
      }
    }

    // Miss: fill the next empty way, or evict the LRU way of a full set.
    // The LRU scan is written as selects so it compiles without a branch
    // per way: which way is oldest is data-dependent and mispredicts.
    std::uint32_t victim = 0;
    if (set.fill < ways_) {
      victim = set.fill++;
    } else {
      std::uint64_t oldest = base[0].stamp;
      for (std::uint32_t w = 1; w < ways_; ++w) {
        const std::uint64_t stamp = base[w].stamp;
        victim = stamp < oldest ? w : victim;
        oldest = stamp < oldest ? stamp : oldest;
      }
    }
    base[victim].tag = tag;
    base[victim].stamp = ++clock_;
    if (is_write) {
      ++stats_.write_misses;
    } else {
      ++stats_.read_misses;
    }
    return false;
  }

  /// True if the line is present (no state change).
  [[nodiscard]] bool probe(Addr addr) const noexcept {
    const Addr tag = line_base(addr);
    const std::size_t s = set_of(tag);
    const Set& set = sets_[s];
    if (set.epoch != epoch_) return false;
    const Way* base = &lines_[s * ways_];
    for (std::uint32_t w = 0; w < set.fill; ++w) {
      if (base[w].tag == tag) return true;
    }
    return false;
  }

  /// Drops every line. GPUs flush caches at kernel boundaries, which is
  /// also what makes inter-kernel producer/consumer data visible remotely.
  /// Every set's epoch is now stale, so each reads as empty until its next
  /// access.
  void invalidate_all() noexcept { ++epoch_; }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t num_sets() const noexcept { return num_sets_; }

 private:
  struct Way {
    Addr tag{0};
    std::uint64_t stamp{0};  // clock_ at the last access; smallest = LRU
  };
  struct Set {
    std::uint64_t epoch{0};  // valid only while equal to the cache's epoch_
    std::uint32_t fill{0};   // ways [0, fill) hold lines
  };

  [[nodiscard]] std::size_t set_of(Addr tag) const noexcept {
    return static_cast<std::size_t>((tag / kLineBytes) % num_sets_);
  }

  std::uint32_t ways_;
  std::size_t num_sets_;
  std::vector<Set> sets_;
  std::vector<Way> lines_;  // num_sets_ * ways_, set-major
  std::uint64_t epoch_{0};
  std::uint64_t clock_{0};
  CacheStats stats_;
};

}  // namespace mgcomp
