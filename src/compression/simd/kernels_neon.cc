// NEON kernels for AArch64, where Advanced SIMD is baseline — no extra
// compile flag or runtime probe needed. Same algorithms as the x86
// backends over four 128-bit registers; per-word masks are extracted by
// AND-ing compare results with lane-indexed power-of-two constants and
// horizontally adding.
#include "compression/simd/backends.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <bit>
#include <cstring>

namespace mgcomp::simd {
namespace {

struct LineRegs {
  uint32x4_t q[4];
};

[[nodiscard]] inline LineRegs load_line(const std::uint8_t* line) noexcept {
  LineRegs r;
  for (int i = 0; i < 4; ++i) {
    r.q[i] = vreinterpretq_u32_u8(vld1q_u8(line + i * 16));
  }
  return r;
}

/// True when every lane of a compare result (any lane width) is all-ones.
[[nodiscard]] inline bool all_true(uint32x4_t m) noexcept {
  return vminvq_u32(m) == 0xFFFFFFFFU;
}

[[nodiscard]] inline bool any_nonzero(const LineRegs& lr) noexcept {
  const uint32x4_t any = vorrq_u32(vorrq_u32(lr.q[0], lr.q[1]),
                                   vorrq_u32(lr.q[2], lr.q[3]));
  return vmaxvq_u32(any) != 0;
}

/// One bit per 32-bit lane across the four quarters of a line.
template <typename Match>
[[nodiscard]] inline std::uint16_t mask32(const LineRegs& lr, Match match) noexcept {
  const uint32x4_t lane_bit = {1U, 2U, 4U, 8U};
  unsigned out = 0;
  for (int i = 0; i < 4; ++i) {
    // Compare lanes are all-ones or zero, so AND with the lane's bit and a
    // horizontal add yields the 4-bit group directly.
    out |= vaddvq_u32(vandq_u32(match(lr.q[i]), lane_bit)) << (4 * i);
  }
  return static_cast<std::uint16_t>(out);
}

FpcWordMasks fpc_neon(const std::uint8_t* line) {
  const LineRegs lr = load_line(line);
  const uint32x4_t zero = vdupq_n_u32(0);

  FpcWordMasks wm;
  const auto put = [&wm, &lr](FpcCodec::Pattern p, auto match) noexcept {
    wm.m[p - FpcCodec::kZeroWord] = mask32(lr, match);
  };

  put(FpcCodec::kZeroWord,
      [&](uint32x4_t w) noexcept { return vceqq_u32(w, zero); });

  const uint32x4_t c8 = vdupq_n_u32(8);
  const uint32x4_t hi4 = vdupq_n_u32(~0xFU);
  put(FpcCodec::kSignExt4, [&](uint32x4_t w) noexcept {
    return vceqq_u32(vandq_u32(vaddq_u32(w, c8), hi4), zero);
  });

  // Repeated bytes: w equals its low byte times 0x01010101.
  const uint32x4_t loByte = vdupq_n_u32(0xFF);
  const uint32x4_t rep4 = vdupq_n_u32(0x01010101U);
  put(FpcCodec::kRepeatedBytes, [&](uint32x4_t w) noexcept {
    return vceqq_u32(w, vmulq_u32(vandq_u32(w, loByte), rep4));
  });

  const uint32x4_t c80 = vdupq_n_u32(0x80);
  const uint32x4_t hi8 = vdupq_n_u32(~0xFFU);
  put(FpcCodec::kSignExt8, [&](uint32x4_t w) noexcept {
    return vceqq_u32(vandq_u32(vaddq_u32(w, c80), hi8), zero);
  });

  const uint32x4_t c8000 = vdupq_n_u32(0x8000);
  const uint32x4_t hi16 = vdupq_n_u32(0xFFFF0000U);
  put(FpcCodec::kSignExt16, [&](uint32x4_t w) noexcept {
    return vceqq_u32(vandq_u32(vaddq_u32(w, c8000), hi16), zero);
  });

  const uint32x4_t lo16 = vdupq_n_u32(0xFFFF);
  put(FpcCodec::kHalfwordPadded, [&](uint32x4_t w) noexcept {
    return vceqq_u32(vandq_u32(w, lo16), zero);
  });

  const uint16x8_t h80 = vdupq_n_u16(0x80);
  const uint16x8_t hFF00 = vdupq_n_u16(0xFF00);
  const uint32x4_t ones = vdupq_n_u32(0xFFFFFFFFU);
  put(FpcCodec::kTwoHalfwordsSignExt8, [&](uint32x4_t w) noexcept {
    const uint16x8_t h = vreinterpretq_u16_u32(w);
    const uint16x8_t fits16 =
        vceqq_u16(vandq_u16(vaddq_u16(h, h80), hFF00), vdupq_n_u16(0));
    return vceqq_u32(vreinterpretq_u32_u16(fits16), ones);
  });

  return wm;
}

// BDI delta-fits checks, one lane width per base size k.
[[nodiscard]] bool form8_valid(const LineRegs& lr, std::uint64_t base,
                               unsigned d) noexcept {
  const std::uint64_t bias = 1ULL << (8 * d - 1);
  const std::uint64_t keep = ~((1ULL << (8 * d)) - 1);
  const uint64x2_t vbias = vdupq_n_u64(bias);
  const uint64x2_t vkeep = vdupq_n_u64(keep);
  const uint64x2_t vbase = vdupq_n_u64(base);
  const uint64x2_t zero = vdupq_n_u64(0);
  for (const uint32x4_t q : lr.q) {
    const uint64x2_t e = vreinterpretq_u64_u32(q);
    const uint64x2_t z =
        vceqq_u64(vandq_u64(vaddq_u64(e, vbias), vkeep), zero);
    const uint64x2_t rel = vaddq_u64(vsubq_u64(e, vbase), vbias);
    const uint64x2_t r = vceqq_u64(vandq_u64(rel, vkeep), zero);
    if (!all_true(vreinterpretq_u32_u64(vorrq_u64(z, r)))) return false;
  }
  return true;
}

[[nodiscard]] bool form4_valid(const LineRegs& lr, std::uint32_t base,
                               unsigned d) noexcept {
  const std::uint32_t bias = 1U << (8 * d - 1);
  const std::uint32_t keep = ~((1U << (8 * d)) - 1);
  const uint32x4_t vbias = vdupq_n_u32(bias);
  const uint32x4_t vkeep = vdupq_n_u32(keep);
  const uint32x4_t vbase = vdupq_n_u32(base);
  const uint32x4_t zero = vdupq_n_u32(0);
  for (const uint32x4_t e : lr.q) {
    const uint32x4_t z =
        vceqq_u32(vandq_u32(vaddq_u32(e, vbias), vkeep), zero);
    const uint32x4_t rel = vaddq_u32(vsubq_u32(e, vbase), vbias);
    const uint32x4_t r = vceqq_u32(vandq_u32(rel, vkeep), zero);
    if (!all_true(vorrq_u32(z, r))) return false;
  }
  return true;
}

[[nodiscard]] bool form2_valid(const LineRegs& lr, std::uint16_t base) noexcept {
  const uint16x8_t vbias = vdupq_n_u16(0x80);
  const uint16x8_t vkeep = vdupq_n_u16(0xFF00);
  const uint16x8_t vbase = vdupq_n_u16(base);
  const uint16x8_t zero = vdupq_n_u16(0);
  for (const uint32x4_t q : lr.q) {
    const uint16x8_t e = vreinterpretq_u16_u32(q);
    const uint16x8_t z =
        vceqq_u16(vandq_u16(vaddq_u16(e, vbias), vkeep), zero);
    const uint16x8_t rel = vaddq_u16(vsubq_u16(e, vbase), vbias);
    const uint16x8_t r = vceqq_u16(vandq_u16(rel, vkeep), zero);
    if (!all_true(vreinterpretq_u32_u16(vorrq_u16(z, r)))) return false;
  }
  return true;
}

std::uint8_t bdi_neon(const std::uint8_t* line) {
  const LineRegs lr = load_line(line);
  if (!any_nonzero(lr)) return BdiCodec::kZeroBlock;

  std::uint64_t base8 = 0;
  std::memcpy(&base8, line, 8);
  const uint64x2_t vq = vdupq_n_u64(base8);
  bool repeated = true;
  for (const uint32x4_t q : lr.q) {
    repeated = repeated &&
               all_true(vreinterpretq_u32_u64(vceqq_u64(vreinterpretq_u64_u32(q), vq)));
  }
  if (repeated) return BdiCodec::kRepeatedWords;

  std::uint32_t base4 = 0;
  std::memcpy(&base4, line, 4);
  std::uint16_t base2 = 0;
  std::memcpy(&base2, line, 2);

  // Ascending encoded size; ties resolve to the lower pattern number
  // (kBdiFormsBySize order).
  if (form8_valid(lr, base8, 1)) return BdiCodec::kBase8Delta1;
  if (form4_valid(lr, base4, 1)) return BdiCodec::kBase4Delta1;
  if (form8_valid(lr, base8, 2)) return BdiCodec::kBase8Delta2;
  if (form4_valid(lr, base4, 2)) return BdiCodec::kBase4Delta2;
  if (form2_valid(lr, base2)) return BdiCodec::kBase2Delta1;
  if (form8_valid(lr, base8, 4)) return BdiCodec::kBase8Delta4;
  return BdiCodec::kUncompressed;
}

/// C-Pack dictionary with a vectorized membership scan. FIFO semantics
/// match the scalar walk; the size mask keeps free slots from matching.
struct VecDict {
  alignas(16) std::uint32_t entries[CpackZCodec::kDictEntries] = {};
  unsigned size = 0;
  unsigned victim = 0;

  void insert(std::uint32_t w) noexcept {
    if (size < CpackZCodec::kDictEntries) {
      entries[size++] = w;
    } else {
      entries[victim] = w;
      victim = (victim + 1) % CpackZCodec::kDictEntries;
    }
  }

  [[nodiscard]] bool contains(std::uint32_t w, std::uint32_t gran) const noexcept {
    const uint32x4_t vw = vdupq_n_u32(w & gran);
    const uint32x4_t vg = vdupq_n_u32(gran);
    const uint32x4_t lane_bit = {1U, 2U, 4U, 8U};
    unsigned m = 0;
    for (unsigned i = 0; i < 4; ++i) {
      const uint32x4_t e = vld1q_u32(entries + i * 4);
      const uint32x4_t eq = vceqq_u32(vandq_u32(e, vg), vw);
      m |= vaddvq_u32(vandq_u32(eq, lane_bit)) << (4 * i);
    }
    m &= size >= CpackZCodec::kDictEntries ? 0xFFFFU : ((1U << size) - 1);
    return m != 0;
  }
};

CpackKernelResult cpack_neon(const std::uint8_t* line) {
  CpackKernelResult r;
  const LineRegs lr = load_line(line);
  if (!any_nonzero(lr)) {
    r.zero_block = true;
    r.bits = CpackZCodec::pattern_bits(CpackZCodec::kZeroBlock);
    return r;
  }

  VecDict dict;
  const auto tally = [&r](CpackZCodec::Pattern p) noexcept {
    r.bits += CpackZCodec::pattern_bits(p);
    ++r.counts[p - CpackZCodec::kZeroWord];
  };
  for (std::size_t i = 0; i < kLineBytes / 4; ++i) {
    std::uint32_t w = 0;
    std::memcpy(&w, line + i * 4, 4);
    // Candidate order mirrors cpack_walk.h exactly.
    if (w == 0) {
      tally(CpackZCodec::kZeroWord);
    } else if (dict.contains(w, 0xFFFFFFFFU)) {
      tally(CpackZCodec::kFullMatch);
    } else if ((w & 0xFFFFFF00U) == 0) {
      tally(CpackZCodec::kNarrowByte);
    } else if (dict.contains(w, 0xFFFFFF00U)) {
      tally(CpackZCodec::kThreeByteMatch);
    } else if (dict.contains(w, 0xFFFF0000U)) {
      tally(CpackZCodec::kHalfwordMatch);
    } else {
      tally(CpackZCodec::kNewWord);
      dict.insert(w);
    }
  }
  return r;
}

/// BlockLzss match extension: 16 bytes per compare while a full vector
/// fits under `max`, scalar tail after (never reads at or past a + max).
/// The shrn-by-4 narrowing turns the byte-compare mask into a 64-bit word
/// with 4 bits per byte lane, so countr_zero / 4 is the mismatch index.
std::uint32_t match_len_neon(const std::uint8_t* a, const std::uint8_t* b,
                             std::uint32_t max) {
  std::uint32_t i = 0;
  while (i + 16 <= max) {
    const uint8x16_t eq = vceqq_u8(vld1q_u8(a + i), vld1q_u8(b + i));
    const uint64_t m = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)), 0);
    if (m != ~0ULL) {
      return i + static_cast<std::uint32_t>(std::countr_zero(~m)) / 4;
    }
    i += 16;
  }
  while (i < max && a[i] == b[i]) ++i;
  return i;
}

// The CRC is the scalar slicing-by-8 kernel.
constexpr ProbeKernels kNeonKernels{"neon", &fpc_neon, &bdi_neon, &cpack_neon,
                                    &match_len_neon, &crc32_scalar};

}  // namespace

const ProbeKernels* neon_kernels() noexcept { return &kNeonKernels; }

}  // namespace mgcomp::simd

#else  // !__aarch64__

namespace mgcomp::simd {
const ProbeKernels* neon_kernels() noexcept { return nullptr; }
}  // namespace mgcomp::simd

#endif
