// Differential test of the epoch-flushed Cache against a reference true-LRU
// model: the array-of-entries tag store with a valid bit per way that the
// cache used before, whose invalidate_all clears every valid bit. Both are
// driven by the same seeded address streams with random flushes, and must
// agree on every access, on the stats and on `probe` of every line touched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "memory/cache.h"

namespace mgcomp {
namespace {

class ReferenceLruCache {
 public:
  ReferenceLruCache(std::size_t size_bytes, std::uint32_t ways)
      : ways_(ways), num_sets_(size_bytes / (static_cast<std::size_t>(ways) * kLineBytes)) {
    lines_.resize(num_sets_ * ways_);
  }

  bool access(Addr addr, bool is_write) {
    const Addr tag = line_base(addr);
    Entry* base = &lines_[set_of(tag) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].last_use = ++clock_;
        ++(is_write ? stats_.write_hits : stats_.read_hits);
        return true;
      }
    }
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
    ++(is_write ? stats_.write_misses : stats_.read_misses);
    return false;
  }

  [[nodiscard]] bool probe(Addr addr) const {
    const Addr tag = line_base(addr);
    const Entry* base = &lines_[set_of(tag) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) return true;
    }
    return false;
  }

  void invalidate_all() {
    for (Entry& e : lines_) e.valid = false;
  }

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    Addr tag{0};
    std::uint64_t last_use{0};
    bool valid{false};
  };

  [[nodiscard]] std::size_t set_of(Addr tag) const {
    return static_cast<std::size_t>((tag / kLineBytes) % num_sets_);
  }

  std::uint32_t ways_;
  std::size_t num_sets_;
  std::vector<Entry> lines_;
  std::uint64_t clock_{0};
  CacheStats stats_;
};

struct Shape {
  std::string name;
  std::size_t size_bytes;
  std::uint32_t ways;
};

void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

class CacheDifferential : public ::testing::TestWithParam<Shape> {};

void expect_same_stats(const CacheStats& got, const CacheStats& want) {
  EXPECT_EQ(got.read_hits, want.read_hits);
  EXPECT_EQ(got.read_misses, want.read_misses);
  EXPECT_EQ(got.write_hits, want.write_hits);
  EXPECT_EQ(got.write_misses, want.write_misses);
}

TEST_P(CacheDifferential, MatchesReferenceLru) {
  const Shape& shape = GetParam();
  const std::size_t capacity_lines = shape.size_bytes / kLineBytes;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Cache cache(shape.size_bytes, shape.ways);
    ReferenceLruCache ref(shape.size_bytes, shape.ways);
    Rng rng(seed);
    // Streams over 1x to 4x the capacity: small footprints mostly hit,
    // large ones keep full sets evicting. Odd seeds flush every ~500
    // accesses, so many sets are partly filled; even seeds every ~10,000,
    // so the large shapes fill and evict too.
    const std::uint64_t footprint = capacity_lines * (1 + seed % 4);
    const double flush_p = seed % 2 == 1 ? 0.002 : 0.0001;
    std::unordered_set<Addr> touched;
    constexpr int kAccesses = 20'000;
    for (int i = 0; i < kAccesses; ++i) {
      if (rng.chance(flush_p)) {
        cache.invalidate_all();
        ref.invalidate_all();
      }
      // Half the accesses hit a small hot range, so LRU order matters.
      const std::uint64_t line =
          rng.chance(0.5) ? rng.below(std::max<std::uint64_t>(1, capacity_lines / 2))
                          : rng.below(footprint);
      const Addr addr = line * kLineBytes + rng.below(kLineBytes);
      const bool is_write = rng.chance(0.25);
      ASSERT_EQ(cache.access(addr, is_write), ref.access(addr, is_write))
          << "access " << i << " addr " << addr;
      ASSERT_TRUE(cache.probe(addr));
      touched.insert(line_base(addr));
      if (i % 1000 == 999) {
        for (const Addr a : touched) ASSERT_EQ(cache.probe(a), ref.probe(a)) << "line " << a;
      }
    }
    expect_same_stats(cache.stats(), ref.stats());
    for (const Addr a : touched) ASSERT_EQ(cache.probe(a), ref.probe(a)) << "line " << a;
    cache.invalidate_all();
    ref.invalidate_all();
    for (const Addr a : touched) ASSERT_FALSE(cache.probe(a)) << "line " << a;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheDifferential,
    ::testing::Values(Shape{"L1_16KB_4way", 16 * 1024, 4},
                      Shape{"L2_256KB_16way", 256 * 1024, 16},
                      Shape{"OneSet_8way", 8 * kLineBytes, 8},
                      Shape{"OneWay_256sets", 256 * kLineBytes, 1},
                      Shape{"ThreeSets_2way", 3 * 2 * kLineBytes, 2}),
    [](const ::testing::TestParamInfo<Shape>& info) { return info.param.name; });

}  // namespace
}  // namespace mgcomp
