#include "workloads/matrix_transpose.h"

#include <array>

#include "common/assert.h"
#include "common/rng.h"
#include "workloads/emit.h"

namespace mgcomp {

namespace {
constexpr std::uint32_t kTile = 16;  // 16 int32 = one 64 B line per tile row
}

void MatrixTransposeWorkload::setup(GlobalMemory& mem) {
  MGCOMP_CHECK_MSG(p_.n > 0 && p_.n % kTile == 0,
                   "MatrixTransposeWorkload: n must be a positive multiple of 16");
  MGCOMP_CHECK_MSG(p_.magnitude > 0, "MatrixTransposeWorkload: magnitude must be >= 1");
  const std::size_t bytes = static_cast<std::size_t>(p_.n) * p_.n * 4;
  a_ = mem.alloc(bytes, "MT.A");
  b_ = mem.alloc(bytes, "MT.B");
  params_ = mem.alloc(kLineBytes, "MT.params");

  Rng rng(p_.seed);
  PageWriter<std::int32_t> a(mem, a_);
  for (std::uint32_t i = 0; i < p_.n; ++i) {
    for (std::uint32_t j = 0; j < p_.n; ++j) {
      std::int32_t v = 0;
      if (!rng.chance(p_.zero_fraction)) {
        if (rng.chance(p_.wide_fraction)) {
          v = static_cast<std::int32_t>(rng.next());  // full 32-bit range
        } else {
          // Byte-ranged magnitudes, signed (sparse engineering matrix).
          v = static_cast<std::int32_t>(
                  rng.below(2 * static_cast<std::uint64_t>(p_.magnitude))) -
              p_.magnitude;
        }
      }
      a.push(v);
    }
  }
}

KernelTrace MatrixTransposeWorkload::generate_kernel(std::size_t k, GlobalMemory& mem) {
  MGCOMP_CHECK(k == 0);
  KernelTrace trace;
  trace.name = "transpose";
  trace.compute_cycles_per_op = 0;  // memory bound
  trace.param_addr = write_param_line(mem, params_, k, {a_, b_, p_.n});

  const std::uint32_t tiles = p_.n / kTile;
  std::array<std::array<std::int32_t, kTile>, kTile> in{};
  std::array<std::int32_t, kTile> out{};
  trace.workgroups.reserve(static_cast<std::size_t>(tiles) * tiles);
  for (std::uint32_t ti = 0; ti < tiles; ++ti) {
    for (std::uint32_t tj = 0; tj < tiles; ++tj) {
      WorkgroupTrace wg;
      // Read the 16 source tile rows (one line each).
      for (std::uint32_t r = 0; r < kTile; ++r) {
        const Addr row = a_ + (static_cast<Addr>(ti * kTile + r) * p_.n + tj * kTile) * 4;
        emit_read(wg, row);
        mem.read<std::int32_t>(row, in[r]);
      }
      // Transpose the tile and write the 16 destination rows.
      for (std::uint32_t r = 0; r < kTile; ++r) {
        for (std::uint32_t c = 0; c < kTile; ++c) out[c] = in[c][r];
        const Addr row = b_ + (static_cast<Addr>(tj * kTile + r) * p_.n + ti * kTile) * 4;
        mem.write<std::int32_t>(row, out);
        emit_write(wg, row);
      }
      trace.workgroups.push_back(std::move(wg));
    }
  }
  return trace;
}

bool MatrixTransposeWorkload::verify(const GlobalMemory& mem) const {
  // Spot-check a pseudo-random subset of elements (full check would be
  // O(n^2) loads through the sparse page map; a 4k-element sample catches
  // any systematic transposition bug).
  Rng rng(p_.seed ^ 0xabcdULL);
  for (int s = 0; s < 4096; ++s) {
    const auto i = static_cast<std::uint32_t>(rng.below(p_.n));
    const auto j = static_cast<std::uint32_t>(rng.below(p_.n));
    const auto av = mem.load<std::int32_t>(a_ + (static_cast<Addr>(i) * p_.n + j) * 4);
    const auto bv = mem.load<std::int32_t>(b_ + (static_cast<Addr>(j) * p_.n + i) * 4);
    if (av != bv) return false;
  }
  return true;
}

}  // namespace mgcomp
