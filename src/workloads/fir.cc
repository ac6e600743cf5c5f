#include "workloads/fir.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "workloads/emit.h"

namespace mgcomp {

namespace {
constexpr std::uint32_t kOutputsPerWg = 256;
}

void FirWorkload::setup(GlobalMemory& mem) {
  MGCOMP_CHECK_MSG(p_.num_blocks > 0, "FirWorkload: num_blocks must be >= 1");
  MGCOMP_CHECK_MSG(p_.num_samples > 0 && p_.num_samples % (p_.num_blocks * kOutputsPerWg) == 0,
                   "FirWorkload: num_samples must be a positive multiple of num_blocks * 256");
  input_ = mem.alloc((static_cast<std::size_t>(p_.num_samples) + p_.num_taps) * 4, "FIR.x");
  output_ = mem.alloc(static_cast<std::size_t>(p_.num_samples) * 4, "FIR.y");
  coeffs_ = mem.alloc(static_cast<std::size_t>(p_.num_taps) * 4, "FIR.c");
  params_ = mem.alloc(static_cast<std::size_t>(p_.num_blocks) * kLineBytes, "FIR.params");

  Rng rng(p_.seed);
  const std::uint32_t quiet_end = std::min(p_.quiet_samples, p_.num_samples);
  {
    PageWriter<std::int32_t> input(mem, input_);
    for (std::uint32_t i = 0; i < p_.num_samples + p_.num_taps; ++i) {
      std::int32_t v = 0;
      if (i < quiet_end) {
        // Quiet dithered intro: mostly silence.
        v = rng.chance(0.85) ? 0 : static_cast<std::int32_t>(rng.below(200)) - 100;
      } else {
        // Loud body: slow waveform plus small noise; values exceed the
        // 16-bit range but neighbors stay close.
        const double phase = 2.0 * 3.14159265358979 * static_cast<double>(i) /
                             static_cast<double>(p_.period);
        v = static_cast<std::int32_t>(static_cast<double>(p_.amplitude) * std::sin(phase)) +
            static_cast<std::int32_t>(rng.below(16)) - 8;
      }
      input.push(v);
    }
  }
  PageWriter<std::int32_t> coeffs(mem, coeffs_);
  for (std::uint32_t t = 0; t < p_.num_taps; ++t) {
    coeffs.push(static_cast<std::int32_t>(rng.below(4000)) - 2000);
  }
}

KernelTrace FirWorkload::generate_kernel(std::size_t k, GlobalMemory& mem) {
  const std::uint32_t block_samples = p_.num_samples / p_.num_blocks;
  const std::uint32_t block_start = static_cast<std::uint32_t>(k) * block_samples;

  KernelTrace trace;
  trace.name = "fir.block" + std::to_string(k);
  trace.compute_cycles_per_op = 2;  // MAC chain between line fetches
  trace.param_addr = write_param_line(mem, params_, k,
                                      {input_, output_, coeffs_, block_start, block_samples});

  // Coefficients once per kernel; then each workgroup reads its input
  // window and writes its outputs with one call each.
  std::vector<std::int32_t> c(p_.num_taps);
  mem.read<std::int32_t>(coeffs_, c);
  std::vector<std::int32_t> window(kOutputsPerWg + p_.num_taps);
  std::array<std::int32_t, kOutputsPerWg> out{};

  trace.workgroups.reserve(block_samples / kOutputsPerWg);
  for (std::uint32_t base = block_start; base < block_start + block_samples;
       base += kOutputsPerWg) {
    WorkgroupTrace wg;
    // Coefficient line(s): fetched by every workgroup, filtered by caches.
    for (std::uint32_t t = 0; t < p_.num_taps; t += kLineBytes / 4) {
      emit_read(wg, coeffs_ + static_cast<Addr>(t) * 4);
    }
    // Input window [base, base + outputs + taps).
    for (std::uint32_t i = base; i < base + kOutputsPerWg + p_.num_taps;
         i += kLineBytes / 4) {
      emit_read(wg, input_ + static_cast<Addr>(i) * 4);
    }
    mem.read<std::int32_t>(input_ + static_cast<Addr>(base) * 4, window);
    for (std::uint32_t i = 0; i < kOutputsPerWg; ++i) {
      std::int64_t acc = 0;
      for (std::uint32_t t = 0; t < p_.num_taps; ++t) {
        acc += static_cast<std::int64_t>(c[t]) * window[i + t];
      }
      out[i] = static_cast<std::int32_t>(acc >> 8);
    }
    mem.write<std::int32_t>(output_ + static_cast<Addr>(base) * 4, out);
    for (std::uint32_t i = base; i < base + kOutputsPerWg; i += kLineBytes / 4) {
      emit_write(wg, output_ + static_cast<Addr>(i) * 4);
    }
    trace.workgroups.push_back(std::move(wg));
  }
  return trace;
}

bool FirWorkload::verify(const GlobalMemory& mem) const {
  std::vector<std::int32_t> c(p_.num_taps);
  std::vector<std::int32_t> x(p_.num_taps);
  mem.read<std::int32_t>(coeffs_, c);
  Rng rng(p_.seed ^ 0xf1f1ULL);
  for (int s = 0; s < 2048; ++s) {
    const auto i = static_cast<std::uint32_t>(rng.below(p_.num_samples));
    mem.read<std::int32_t>(input_ + static_cast<Addr>(i) * 4, x);
    std::int64_t acc = 0;
    for (std::uint32_t t = 0; t < p_.num_taps; ++t) {
      acc += static_cast<std::int64_t>(c[t]) * x[t];
    }
    const auto got = mem.load<std::int32_t>(output_ + static_cast<Addr>(i) * 4);
    if (got != static_cast<std::int32_t>(acc >> 8)) return false;
  }
  return true;
}

}  // namespace mgcomp
