#include "workloads/bitonic_sort.h"

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <utility>

#include "common/assert.h"
#include "common/rng.h"
#include "workloads/emit.h"

namespace mgcomp {

namespace {
constexpr std::uint32_t kIndicesPerWg = 512;  // 256 active pairs
constexpr auto kKeysPerLine = static_cast<std::uint32_t>(kLineBytes / 4);
}

void BitonicSortWorkload::setup(GlobalMemory& mem) {
  MGCOMP_CHECK_MSG((p_.n & (p_.n - 1)) == 0 && p_.n >= kIndicesPerWg,
                   "BitonicSortWorkload: n must be a power of two >= 512");
  MGCOMP_CHECK_MSG(p_.small_range >= 2, "BitonicSortWorkload: small_range must be >= 2");
  keys_ = mem.alloc(static_cast<std::size_t>(p_.n) * 4, "BS.keys");

  stages_.clear();
  for (std::uint32_t k = 2; k <= p_.n; k <<= 1) {
    for (std::uint32_t j = k >> 1; j > 0; j >>= 1) stages_.emplace_back(k, j);
  }
  params_ = mem.alloc(stages_.size() * kLineBytes, "BS.params");

  Rng rng(p_.seed);
  PageWriter<std::uint32_t> keys(mem, keys_);
  for (std::uint32_t i = 0; i < p_.n; ++i) {
    keys.push(rng.chance(p_.zero_fraction)
                  ? 0
                  : 1 + static_cast<std::uint32_t>(rng.below(p_.small_range - 1)));
  }
}

std::size_t BitonicSortWorkload::kernel_count() const { return stages_.size(); }

KernelTrace BitonicSortWorkload::generate_kernel(std::size_t kernel, GlobalMemory& mem) {
  const auto [k, j] = stages_[kernel];

  KernelTrace trace;
  trace.name = "bs.k" + std::to_string(k) + ".j" + std::to_string(j);
  trace.compute_cycles_per_op = 0;
  trace.param_addr = write_param_line(mem, params_, kernel, {keys_, p_.n, k, j});

  // A workgroup's pairs (i, i ^ j) with i < i ^ j either all lie in its
  // 512-key window (j < 512) or pair the whole window with the block j
  // keys above it (j >= 512; windows with bit j set have no pairs).
  std::array<std::uint32_t, kIndicesPerWg> lo{};
  std::array<std::uint32_t, kIndicesPerWg> hi{};

  trace.workgroups.reserve(p_.n / kIndicesPerWg);
  for (std::uint32_t base = 0; base < p_.n; base += kIndicesPerWg) {
    WorkgroupTrace wg;
    // Load phase, one side at a time so consecutive work items coalesce.
    // A key i is active when i ^ j > i. For j >= 16 a 16-key line is wholly
    // active or idle, and for j < 16 every line is active and its partners
    // share the line, so testing each line's first key and emitting once
    // per line gives the ops a per-key loop would coalesce to.
    for (std::uint32_t i = base; i < base + kIndicesPerWg; i += kKeysPerLine) {
      if ((i ^ j) > i) emit_read(wg, keys_ + static_cast<Addr>(i) * 4);
    }
    for (std::uint32_t i = base; i < base + kIndicesPerWg; i += kKeysPerLine) {
      if ((i ^ j) > i) emit_read(wg, keys_ + static_cast<Addr>(i ^ j) * 4);
    }
    // Functional compare-exchange (both elements are written back, as the
    // GPU kernel does).
    if (j < kIndicesPerWg) {
      mem.read<std::uint32_t>(keys_ + static_cast<Addr>(base) * 4, lo);
      for (std::uint32_t x = 0; x < kIndicesPerWg; ++x) {
        const std::uint32_t partner = x ^ j;
        if (partner <= x) continue;
        const bool ascending = ((base + x) & k) == 0;
        if ((lo[x] > lo[partner]) == ascending) std::swap(lo[x], lo[partner]);
      }
      mem.write<std::uint32_t>(keys_ + static_cast<Addr>(base) * 4, lo);
    } else if ((base & j) == 0) {
      mem.read<std::uint32_t>(keys_ + static_cast<Addr>(base) * 4, lo);
      mem.read<std::uint32_t>(keys_ + static_cast<Addr>(base + j) * 4, hi);
      const bool ascending = (base & k) == 0;  // k > j >= 512: same for the window
      for (std::uint32_t x = 0; x < kIndicesPerWg; ++x) {
        if ((lo[x] > hi[x]) == ascending) std::swap(lo[x], hi[x]);
      }
      mem.write<std::uint32_t>(keys_ + static_cast<Addr>(base) * 4, lo);
      mem.write<std::uint32_t>(keys_ + static_cast<Addr>(base + j) * 4, hi);
    }
    // Store phase, again one side at a time and one emit per line.
    for (std::uint32_t i = base; i < base + kIndicesPerWg; i += kKeysPerLine) {
      if ((i ^ j) > i) emit_write(wg, keys_ + static_cast<Addr>(i) * 4);
    }
    for (std::uint32_t i = base; i < base + kIndicesPerWg; i += kKeysPerLine) {
      if ((i ^ j) > i) emit_write(wg, keys_ + static_cast<Addr>(i ^ j) * 4);
    }
    if (!wg.ops.empty()) trace.workgroups.push_back(std::move(wg));
  }
  return trace;
}

bool BitonicSortWorkload::verify(const GlobalMemory& mem) const {
  std::array<std::uint32_t, kPageBytes / 4> chunk{};
  std::uint32_t prev = 0;
  for (std::uint32_t base = 0; base < p_.n; base += chunk.size()) {
    const std::span<std::uint32_t> keys(chunk.data(),
                                        std::min<std::size_t>(chunk.size(), p_.n - base));
    mem.read<std::uint32_t>(keys_ + static_cast<Addr>(base) * 4, keys);
    for (const std::uint32_t v : keys) {
      if (v < prev) return false;
      prev = v;
    }
  }
  return true;
}

}  // namespace mgcomp
