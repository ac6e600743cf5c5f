// Set-associative tag-array cache model with true-LRU replacement.
//
// Caches here are *timing* models: they track presence (hit/miss) only.
// Functional data always lives in GlobalMemory, so tag-only caches keep the
// simulator fast while producing the traffic filtering that matters — a
// line fetched remotely once and re-read from L1 does not hit the fabric
// again. Both reads and writes allocate on a miss (write-allocate); the
// GPU writes through to the owner, so a cache never holds dirty data (see
// `access` and Gpu::access).
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
    lines_.resize(num_sets_ * ways_);
  }

  /// Looks up the line containing `addr`; on miss, allocates it (evicting
  /// LRU). Returns true on hit. `is_write` only affects the stats split;
  /// both reads and writes allocate (write-allocate, matching GPU L1/L2
  /// sector behavior closely enough for traffic purposes).
  bool access(Addr addr, bool is_write) {
    const Addr tag = line_base(addr);
    const std::size_t set = static_cast<std::size_t>((tag / kLineBytes) % num_sets_);
    Entry* base = &lines_[set * ways_];

    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].last_use = ++clock_;
        if (is_write) {
          ++stats_.write_hits;
        } else {
          ++stats_.read_hits;
        }
        return true;
      }
    }

    // Miss: evict LRU (or fill an invalid way).
    Entry* victim = &base[0];
    for (std::uint32_t w = 1; w < ways_; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (!victim->valid) break;
      if (base[w].last_use < victim->last_use) victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->last_use = ++clock_;
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
    const std::size_t set = static_cast<std::size_t>((tag / kLineBytes) % num_sets_);
    const Entry* base = &lines_[set * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
  }

  /// Drops every line. GPUs flush caches at kernel boundaries, which is
  /// also what makes inter-kernel producer/consumer data visible remotely.
  void invalidate_all() noexcept {
    for (Entry& e : lines_) e.valid = false;
  }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t num_sets() const noexcept { return num_sets_; }

 private:
  struct Entry {
    Addr tag{0};
    std::uint64_t last_use{0};
    bool valid{false};
  };

  std::uint32_t ways_;
  std::size_t num_sets_;
  std::vector<Entry> lines_;
  std::uint64_t clock_{0};
  CacheStats stats_;
};

}  // namespace mgcomp
