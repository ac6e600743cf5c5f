// Kernel interface of the SIMD dispatch layer (ISSUE 4).
//
// A ProbeKernels table bundles one implementation per codec of the
// data-parallel core of probe(): FPC word classification, BDI form
// selection, and the C-Pack+Z counting walk. It also carries BlockLzss's
// match extension and the fabric's CRC-32. Backends (scalar / AVX2 /
// NEON) provide the tables; the shared *drivers* below turn raw
// kernel output into the exact size_bits and PatternStats the virtual
// probe()/compress() contract requires — so a backend only has to get the
// per-word facts right, never the Table II accounting.
//
// Bit-identity contract: for every line, every backend's kernels must make
// the drivers produce byte-for-byte the results of the scalar reference
// (which in turn mirrors compress()). tests/simd_test.cc fuzzes this and
// tests/perf_identity_test.cc pins whole-simulation fingerprints per
// backend.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "compression/bdi.h"
#include "compression/cpackz.h"
#include "compression/fpc.h"

namespace mgcomp::simd {

// ---------------------------------------------------------------------------
// FPC: per-word pattern-match masks.

/// Bit i of m[p - FpcCodec::kZeroWord] set means word i matches pattern p.
/// Masks MAY overlap (a SIMD backend reports every match); the driver
/// resolves priority in classify_word() order. A backend may early-exit on
/// the first word matching nothing — later words then appear in no mask,
/// which the driver reads as "line goes raw" either way.
struct FpcWordMasks {
  std::array<std::uint16_t, 7> m{};
};

/// Index order (into FpcWordMasks::m) replicating classify_word()'s
/// cheapest-first priority: zero, sign-ext-4, repeated bytes, sign-ext-8,
/// sign-ext-16, halfword-padded, two sign-ext-8 halfwords.
inline constexpr std::array<std::uint8_t, 7> kFpcClassifyOrder = {
    FpcCodec::kZeroWord - FpcCodec::kZeroWord,
    FpcCodec::kSignExt4 - FpcCodec::kZeroWord,
    FpcCodec::kRepeatedBytes - FpcCodec::kZeroWord,
    FpcCodec::kSignExt8 - FpcCodec::kZeroWord,
    FpcCodec::kSignExt16 - FpcCodec::kZeroWord,
    FpcCodec::kHalfwordPadded - FpcCodec::kZeroWord,
    FpcCodec::kTwoHalfwordsSignExt8 - FpcCodec::kZeroWord,
};

/// Priority-resolved FPC selection: disjoint per-pattern masks plus the
/// exact encoded size of the compressible case.
struct FpcSelected {
  std::array<std::uint16_t, 7> sel{};
  std::uint16_t uncompressed{0};  ///< words matching no pattern
  std::uint32_t total_bits{0};    ///< sum of (prefix + payload) over all words
};

[[nodiscard]] inline FpcSelected fpc_select(const FpcWordMasks& wm) noexcept {
  FpcSelected s;
  unsigned taken = 0;
  for (const std::uint8_t idx : kFpcClassifyOrder) {
    const std::uint16_t pick = static_cast<std::uint16_t>(wm.m[idx] & ~taken);
    s.sel[idx] = pick;
    taken |= wm.m[idx];
    const auto p = static_cast<FpcCodec::Pattern>(idx + FpcCodec::kZeroWord);
    s.total_bits += static_cast<std::uint32_t>(std::popcount(pick)) *
                    (FpcCodec::kPrefixBits + FpcCodec::payload_bits(p));
  }
  s.uncompressed = static_cast<std::uint16_t>(~taken);
  return s;
}

/// Driver: exact FpcCodec::probe() result from kernel masks.
[[nodiscard]] inline std::uint32_t fpc_probe_result(const FpcWordMasks& wm,
                                                    PatternStats* stats) noexcept {
  if (wm.m[0] == 0xFFFFU) {  // every word zero -> whole-line zero block
    if (stats != nullptr) stats->add(FpcCodec::kZeroBlock);
    return FpcCodec::kPrefixBits;
  }
  const FpcSelected s = fpc_select(wm);
  if (s.uncompressed != 0 || s.total_bits >= kLineBits) {
    if (stats != nullptr) stats->add(FpcCodec::kUncompressed);
    return kLineBits;
  }
  if (stats != nullptr) {
    for (std::size_t i = 0; i < s.sel.size(); ++i) {
      if (s.sel[i] != 0) {
        stats->add(i + FpcCodec::kZeroWord,
                   static_cast<std::uint64_t>(std::popcount(s.sel[i])));
      }
    }
  }
  return s.total_bits;
}

/// Expands disjoint selection masks into the per-word pattern array the
/// FPC emit pass walks. Only meaningful when s.uncompressed == 0.
inline void fpc_word_patterns(const FpcSelected& s,
                              std::array<std::uint8_t, 16>& out) noexcept {
  for (std::size_t i = 0; i < s.sel.size(); ++i) {
    std::uint16_t mask = s.sel[i];
    while (mask != 0) {
      const int w = std::countr_zero(mask);
      mask = static_cast<std::uint16_t>(mask & (mask - 1));
      out[static_cast<std::size_t>(w)] =
          static_cast<std::uint8_t>(i + FpcCodec::kZeroWord);
    }
  }
}

// ---------------------------------------------------------------------------
// BDI: whole-line pattern selection.

/// The six (k, d) forms in ascending encoded-size order, ties resolved
/// toward the lower pattern number — the exact ranking the original
/// best_form() scan produced. A kernel returns the first valid entry.
struct BdiForm {
  std::uint8_t pattern;  ///< BdiCodec::Pattern
  std::uint8_t k;        ///< base bytes
  std::uint8_t d;        ///< delta bytes
};

inline constexpr std::array<BdiForm, 6> kBdiFormsBySize = {{
    {BdiCodec::kBase8Delta1, 8, 1},
    {BdiCodec::kBase4Delta1, 4, 1},
    {BdiCodec::kBase8Delta2, 8, 2},
    {BdiCodec::kBase4Delta2, 4, 2},
    {BdiCodec::kBase2Delta1, 2, 1},
    {BdiCodec::kBase8Delta4, 8, 4},
}};

/// Driver: exact BdiCodec::probe() result from the kernel-selected pattern.
[[nodiscard]] inline std::uint32_t bdi_probe_result(std::uint8_t pattern,
                                                    PatternStats* stats) noexcept {
  const auto p = static_cast<BdiCodec::Pattern>(pattern);
  if (stats != nullptr) stats->add(p);
  return BdiCodec::form_bits(p);
}

// ---------------------------------------------------------------------------
// C-Pack+Z: counting walk result.

/// Exact stream length and per-pattern tallies of one line's walk.
/// counts is indexed by Pattern - kZeroWord; a 64-byte line has at most 16
/// words per pattern so uint8 cannot overflow.
struct CpackKernelResult {
  std::uint32_t bits{0};
  bool zero_block{false};
  std::array<std::uint8_t, 6> counts{};
};

/// Driver: exact CpackZCodec::probe() result from the kernel walk.
[[nodiscard]] inline std::uint32_t cpack_probe_result(const CpackKernelResult& r,
                                                      PatternStats* stats) noexcept {
  if (r.zero_block) {
    if (stats != nullptr) stats->add(CpackZCodec::kZeroBlock);
    return CpackZCodec::pattern_bits(CpackZCodec::kZeroBlock);
  }
  if (r.bits >= kLineBits) {
    if (stats != nullptr) stats->add(CpackZCodec::kUncompressed);
    return kLineBits;
  }
  if (stats != nullptr) {
    for (std::size_t i = 0; i < r.counts.size(); ++i) {
      if (r.counts[i] != 0) stats->add(i + CpackZCodec::kZeroWord, r.counts[i]);
    }
  }
  return r.bits;
}

// ---------------------------------------------------------------------------
// The per-backend kernel table.

/// One line is always exactly kLineBytes; kernels take the raw pointer so
/// backends are free to issue unaligned vector loads over it.
///
/// match_len is the block-codec (BlockLzss) match extension: the length of
/// the common prefix of `a` and `b`, capped at `max`. Both pointers address
/// the same in-bounds block buffer and `max` never reaches past its end, so
/// backends may read up to their vector width *within* max but must never
/// read byte `max` or beyond. The result is an exact function of the bytes,
/// so every backend is trivially bit-identical — the fuzzer checks anyway.
///
/// crc32 is the link-layer CRC-32 (IEEE, reflected) the fabric stamps on
/// every message: it feeds `n` bytes into the raw register `reg` (no
/// pre- or post-inversion) and returns the new register, exactly as
/// Crc32(reg).update(data, n).reg() does. Reads stay within [data, data+n).
struct ProbeKernels {
  const char* name;
  FpcWordMasks (*fpc)(const std::uint8_t* line);
  std::uint8_t (*bdi)(const std::uint8_t* line);  ///< returns BdiCodec::Pattern
  CpackKernelResult (*cpack)(const std::uint8_t* line);
  std::uint32_t (*match_len)(const std::uint8_t* a, const std::uint8_t* b,
                             std::uint32_t max);
  std::uint32_t (*crc32)(std::uint32_t reg, const std::uint8_t* data, std::size_t n);
};

}  // namespace mgcomp::simd
