// AVX2 kernels: 256-bit lanes cover a 64-byte line in two registers, so
// FPC classifies all 16 words with one vector op per pattern class, BDI
// checks a (k, d) form's delta-fits condition for every element at once,
// and the C-Pack walk replaces the linear dictionary scan with a single
// masked compare over all 16 entries. The CRC-32 kernel folds 16-byte
// blocks with PCLMULQDQ.
//
// This TU is compiled with -mavx2 -mpclmul only when the compiler supports
// both (MGCOMP_SIMD_AVX2 set by CMake); the dispatcher additionally gates
// on runtime CPUID (avx2 and pclmulqdq) before selecting the table.
#include "compression/simd/backends.h"

#if defined(MGCOMP_SIMD_AVX2)

#include <immintrin.h>

#include <bit>
#include <cstring>

namespace mgcomp::simd {
namespace {

/// One bit per 32-bit lane across the two halves of a line.
[[nodiscard]] inline unsigned mask32(__m256i lo, __m256i hi) noexcept {
  const unsigned m0 =
      static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(lo)));
  const unsigned m1 =
      static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(hi)));
  return (m1 << 8) | m0;
}

/// True when every lane of a compare result (any lane width) is all-ones.
[[nodiscard]] inline bool all_true(__m256i m) noexcept {
  return _mm256_movemask_epi8(m) == -1;
}

FpcWordMasks fpc_avx2(const std::uint8_t* line) {
  const __m256i w0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(line));
  const __m256i w1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(line + 32));
  const __m256i zero = _mm256_setzero_si256();

  FpcWordMasks wm;
  const auto put = [&wm](FpcCodec::Pattern p, unsigned mask) noexcept {
    wm.m[p - FpcCodec::kZeroWord] = static_cast<std::uint16_t>(mask);
  };

  // Zero word: w == 0.
  put(FpcCodec::kZeroWord, mask32(_mm256_cmpeq_epi32(w0, zero),
                                  _mm256_cmpeq_epi32(w1, zero)));

  // Sign-extended 4-bit: w + 8 fits in the low 4 bits (wrap-around covers
  // the negative half).
  const __m256i c8 = _mm256_set1_epi32(8);
  const __m256i hi4 = _mm256_set1_epi32(~0xF);
  const auto sign4 = [&](__m256i w) noexcept {
    return _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_add_epi32(w, c8), hi4), zero);
  };
  put(FpcCodec::kSignExt4, mask32(sign4(w0), sign4(w1)));

  // Repeated bytes: w equals its low byte broadcast to all four positions.
  const __m256i bidx = _mm256_setr_epi8(0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12,
                                        0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12);
  const auto rep = [&](__m256i w) noexcept {
    return _mm256_cmpeq_epi32(w, _mm256_shuffle_epi8(w, bidx));
  };
  put(FpcCodec::kRepeatedBytes, mask32(rep(w0), rep(w1)));

  // Sign-extended 8-bit / 16-bit: w + bias fits below the kept bits.
  const __m256i c80 = _mm256_set1_epi32(0x80);
  const __m256i hi8 = _mm256_set1_epi32(~0xFF);
  const auto sign8 = [&](__m256i w) noexcept {
    return _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_add_epi32(w, c80), hi8), zero);
  };
  put(FpcCodec::kSignExt8, mask32(sign8(w0), sign8(w1)));

  const __m256i c8000 = _mm256_set1_epi32(0x8000);
  const __m256i hi16 = _mm256_set1_epi32(static_cast<int>(0xFFFF0000U));
  const auto sign16 = [&](__m256i w) noexcept {
    return _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_add_epi32(w, c8000), hi16), zero);
  };
  put(FpcCodec::kSignExt16, mask32(sign16(w0), sign16(w1)));

  // Halfword padded with zeros: low 16 bits clear.
  const __m256i lo16 = _mm256_set1_epi32(0xFFFF);
  const auto half = [&](__m256i w) noexcept {
    return _mm256_cmpeq_epi32(_mm256_and_si256(w, lo16), zero);
  };
  put(FpcCodec::kHalfwordPadded, mask32(half(w0), half(w1)));

  // Two sign-extended-8 halfwords: each 16-bit half + 0x80 fits in 8 bits;
  // a word qualifies when both of its halves do.
  const __m256i h80 = _mm256_set1_epi16(0x80);
  const __m256i hFF00 = _mm256_set1_epi16(static_cast<short>(0xFF00));
  const __m256i ones = _mm256_set1_epi32(-1);
  const auto two = [&](__m256i w) noexcept {
    const __m256i fits16 = _mm256_cmpeq_epi16(
        _mm256_and_si256(_mm256_add_epi16(w, h80), hFF00), zero);
    return _mm256_cmpeq_epi32(fits16, ones);
  };
  put(FpcCodec::kTwoHalfwordsSignExt8, mask32(two(w0), two(w1)));

  return wm;
}

// BDI delta-fits check for k = 8: every 64-bit element must be within a
// d-byte two's-complement delta of zero or of the first element.
[[nodiscard]] bool form8_valid(__m256i a, __m256i b, std::uint64_t base,
                               unsigned d) noexcept {
  const std::uint64_t bias = 1ULL << (8 * d - 1);
  const std::uint64_t keep = ~((1ULL << (8 * d)) - 1);
  const __m256i vbias = _mm256_set1_epi64x(static_cast<long long>(bias));
  const __m256i vkeep = _mm256_set1_epi64x(static_cast<long long>(keep));
  const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
  const __m256i zero = _mm256_setzero_si256();
  const auto ok = [&](__m256i e) noexcept {
    const __m256i z =
        _mm256_cmpeq_epi64(_mm256_and_si256(_mm256_add_epi64(e, vbias), vkeep), zero);
    const __m256i rel = _mm256_add_epi64(_mm256_sub_epi64(e, vbase), vbias);
    const __m256i r = _mm256_cmpeq_epi64(_mm256_and_si256(rel, vkeep), zero);
    return _mm256_or_si256(z, r);
  };
  return all_true(ok(a)) && all_true(ok(b));
}

// Same for k = 4 (32-bit elements).
[[nodiscard]] bool form4_valid(__m256i a, __m256i b, std::uint32_t base,
                               unsigned d) noexcept {
  const std::uint32_t bias = 1U << (8 * d - 1);
  const std::uint32_t keep = ~((1U << (8 * d)) - 1);
  const __m256i vbias = _mm256_set1_epi32(static_cast<int>(bias));
  const __m256i vkeep = _mm256_set1_epi32(static_cast<int>(keep));
  const __m256i vbase = _mm256_set1_epi32(static_cast<int>(base));
  const __m256i zero = _mm256_setzero_si256();
  const auto ok = [&](__m256i e) noexcept {
    const __m256i z =
        _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_add_epi32(e, vbias), vkeep), zero);
    const __m256i rel = _mm256_add_epi32(_mm256_sub_epi32(e, vbase), vbias);
    const __m256i r = _mm256_cmpeq_epi32(_mm256_and_si256(rel, vkeep), zero);
    return _mm256_or_si256(z, r);
  };
  return all_true(ok(a)) && all_true(ok(b));
}

// Same for k = 2, d = 1 (16-bit elements).
[[nodiscard]] bool form2_valid(__m256i a, __m256i b, std::uint16_t base) noexcept {
  const __m256i vbias = _mm256_set1_epi16(0x80);
  const __m256i vkeep = _mm256_set1_epi16(static_cast<short>(0xFF00));
  const __m256i vbase = _mm256_set1_epi16(static_cast<short>(base));
  const __m256i zero = _mm256_setzero_si256();
  const auto ok = [&](__m256i e) noexcept {
    const __m256i z =
        _mm256_cmpeq_epi16(_mm256_and_si256(_mm256_add_epi16(e, vbias), vkeep), zero);
    const __m256i rel = _mm256_add_epi16(_mm256_sub_epi16(e, vbase), vbias);
    const __m256i r = _mm256_cmpeq_epi16(_mm256_and_si256(rel, vkeep), zero);
    return _mm256_or_si256(z, r);
  };
  return all_true(ok(a)) && all_true(ok(b));
}

std::uint8_t bdi_avx2(const std::uint8_t* line) {
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(line));
  const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(line + 32));
  const __m256i any = _mm256_or_si256(a, b);
  if (_mm256_testz_si256(any, any) != 0) return BdiCodec::kZeroBlock;

  std::uint64_t base8 = 0;
  std::memcpy(&base8, line, 8);
  const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(base8));
  if (all_true(_mm256_cmpeq_epi64(a, vq)) && all_true(_mm256_cmpeq_epi64(b, vq))) {
    return BdiCodec::kRepeatedWords;
  }

  std::uint32_t base4 = 0;
  std::memcpy(&base4, line, 4);
  std::uint16_t base2 = 0;
  std::memcpy(&base2, line, 2);

  // Ascending encoded size; ties resolve to the lower pattern number
  // (kBdiFormsBySize order).
  if (form8_valid(a, b, base8, 1)) return BdiCodec::kBase8Delta1;
  if (form4_valid(a, b, base4, 1)) return BdiCodec::kBase4Delta1;
  if (form8_valid(a, b, base8, 2)) return BdiCodec::kBase8Delta2;
  if (form4_valid(a, b, base4, 2)) return BdiCodec::kBase4Delta2;
  if (form2_valid(a, b, base2)) return BdiCodec::kBase2Delta1;
  if (form8_valid(a, b, base8, 4)) return BdiCodec::kBase8Delta4;
  return BdiCodec::kUncompressed;
}

/// C-Pack dictionary with a vectorized membership test: all 16 entries are
/// compared (masked to the match granularity) in two 256-bit ops. Inserts
/// keep the scalar FIFO semantics; unpopulated slots are excluded by the
/// size mask so their zero-initialized contents can never match.
struct VecDict {
  alignas(32) std::uint32_t entries[CpackZCodec::kDictEntries] = {};
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
    const __m256i vw = _mm256_set1_epi32(static_cast<int>(w & gran));
    const __m256i vg = _mm256_set1_epi32(static_cast<int>(gran));
    const __m256i e0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(entries));
    const __m256i e1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(entries + 8));
    unsigned m = mask32(_mm256_cmpeq_epi32(_mm256_and_si256(e0, vg), vw),
                        _mm256_cmpeq_epi32(_mm256_and_si256(e1, vg), vw));
    m &= size >= CpackZCodec::kDictEntries ? 0xFFFFU : ((1U << size) - 1);
    return m != 0;
  }
};

CpackKernelResult cpack_avx2(const std::uint8_t* line) {
  CpackKernelResult r;
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(line));
  const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(line + 32));
  const __m256i any = _mm256_or_si256(a, b);
  if (_mm256_testz_si256(any, any) != 0) {
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

/// BlockLzss match extension: 32 bytes per compare while a full vector
/// fits under `max`, scalar tail after (never reads at or past a + max).
std::uint32_t match_len_avx2(const std::uint8_t* a, const std::uint8_t* b,
                             std::uint32_t max) {
  std::uint32_t i = 0;
  while (i + 32 <= max) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const auto ne = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (ne != 0) {
      return i + static_cast<std::uint32_t>(std::countr_zero(ne));
    }
    i += 32;
  }
  while (i < max && a[i] == b[i]) ++i;
  return i;
}

// ---------------------------------------------------------------------------
// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009).
//
// The message is read as 128-bit blocks of a polynomial over GF(2) in the
// bit-reflected order of the IEEE CRC. A running 128-bit remainder, kept
// congruent to the message read so far modulo P, is carried N bits forward
// by multiplying its two 64-bit halves by x^(N+32) mod P and x^(N-32) mod P
// and adding the block found N bits on. At the end, two more folds take the
// remainder to 64 bits and a Barrett reduction to the 32-bit register.

// Each fold constant is x^e mod P, bit-reflected and shifted left by one
// (the reflected product of two 64-bit operands comes out one bit low).
constexpr std::uint64_t kFold4Lo = 0x154442BD4;  // e = 4*128 + 32
constexpr std::uint64_t kFold4Hi = 0x1C6E41596;  // e = 4*128 - 32
constexpr std::uint64_t kFold1Lo = 0x1751997D0;  // e = 128 + 32
constexpr std::uint64_t kFold1Hi = 0x0CCAA009E;  // e = 128 - 32
constexpr std::uint64_t kFold64 = 0x163CD6124;   // e = 64
// Barrett reduction: P itself and floor(x^64 / P), both bit-reflected.
constexpr std::uint64_t kPoly = 0x1DB710641;
constexpr std::uint64_t kBarrettMu = 0x1F7011641;

[[nodiscard]] inline __m128i load16(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

[[nodiscard]] inline __m128i pair(std::uint64_t hi, std::uint64_t lo) noexcept {
  return _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo));
}

/// Carries the remainder `x` forward by the distance `k` was made for and
/// adds the block found there.
[[nodiscard]] inline __m128i fold(__m128i x, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Reduces the final 128-bit remainder to the CRC register.
[[nodiscard]] inline std::uint32_t reduce(__m128i x) noexcept {
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  // 128 -> 96 bits: carry the low half onto the high half.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, pair(kFold1Hi, kFold1Lo), 0x10));
  // 96 -> 64 bits: carry the low 32 bits onto the rest.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                                         pair(0, kFold64), 0x00));
  // Barrett: q = low32(x) * mu, then x ^= low32(q) * P leaves the
  // register in bits 32..63.
  const __m128i barrett = pair(kBarrettMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

/// Four independent lanes from 64 bytes up (each carried 512 bits per step,
/// so their multiplies overlap), then one lane; a tail shorter than a block
/// goes to the scalar kernel, as does a whole input under 16 bytes.
std::uint32_t crc32_avx2(std::uint32_t reg, const std::uint8_t* p, std::size_t n) {
  if (n < 16) return crc32_scalar(reg, p, n);
  const __m128i k1 = pair(kFold1Hi, kFold1Lo);
  const std::size_t tail = n % 16;
  std::size_t blocks = n / 16 - 1;
  // The register is the remainder of everything before p: it enters as
  // the first 32 bits of the first block.
  __m128i x = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
  p += 16;
  if (blocks >= 3) {
    const __m128i k4 = pair(kFold4Hi, kFold4Lo);
    __m128i x1 = load16(p);
    __m128i x2 = load16(p + 16);
    __m128i x3 = load16(p + 32);
    p += 48;
    blocks -= 3;
    for (; blocks >= 4; blocks -= 4, p += 64) {
      x = fold(x, k4, load16(p));
      x1 = fold(x1, k4, load16(p + 16));
      x2 = fold(x2, k4, load16(p + 32));
      x3 = fold(x3, k4, load16(p + 48));
    }
    x = fold(fold(fold(x, k1, x1), k1, x2), k1, x3);
  }
  for (; blocks > 0; --blocks, p += 16) x = fold(x, k1, load16(p));
  reg = reduce(x);
  return tail == 0 ? reg : crc32_scalar(reg, p, tail);
}

constexpr ProbeKernels kAvx2Kernels{"avx2", &fpc_avx2, &bdi_avx2, &cpack_avx2,
                                    &match_len_avx2, &crc32_avx2};

}  // namespace

const ProbeKernels* avx2_kernels() noexcept { return &kAvx2Kernels; }

}  // namespace mgcomp::simd

#else  // !MGCOMP_SIMD_AVX2

namespace mgcomp::simd {
const ProbeKernels* avx2_kernels() noexcept { return nullptr; }
}  // namespace mgcomp::simd

#endif
