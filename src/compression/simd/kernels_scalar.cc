// Scalar reference kernels. These are the semantics every SIMD backend
// must reproduce bit-for-bit: FPC classification delegates to the codec's
// own classify_word(), BDI form selection to form_valid(), the C-Pack
// walk to the template shared with the encode path, and the CRC to
// Crc32::update().
#include <algorithm>

#include "common/crc32.h"
#include "compression/cpack_walk.h"
#include "compression/simd/backends.h"

namespace mgcomp::simd {
namespace {

[[nodiscard]] LineView as_line(const std::uint8_t* line) noexcept {
  return LineView{line, kLineBytes};
}

[[nodiscard]] bool all_zero(const std::uint8_t* line) noexcept {
  return std::all_of(line, line + kLineBytes, [](std::uint8_t b) { return b == 0; });
}

FpcWordMasks fpc_scalar(const std::uint8_t* line) {
  FpcWordMasks wm;
  const LineView lv = as_line(line);
  for (std::size_t i = 0; i < kLineBytes / 4; ++i) {
    const std::uint32_t w = load_le<std::uint32_t>(lv, i * 4);
    const FpcCodec::Pattern p = FpcCodec::classify_word(w);
    // Early exit: one unmatched word forces the line raw, so later words
    // need no classification — the driver sees them in no mask.
    if (p == FpcCodec::kUncompressed) return wm;
    wm.m[p - FpcCodec::kZeroWord] |= static_cast<std::uint16_t>(1U << i);
  }
  return wm;
}

std::uint8_t bdi_scalar(const std::uint8_t* line) {
  const LineView lv = as_line(line);
  if (all_zero(line)) return BdiCodec::kZeroBlock;
  const std::uint64_t w0 = load_le<std::uint64_t>(lv, 0);
  bool repeated = true;
  for (std::size_t i = 1; i < 8 && repeated; ++i) {
    repeated = load_le<std::uint64_t>(lv, i * 8) == w0;
  }
  if (repeated) return BdiCodec::kRepeatedWords;
  for (const BdiForm& f : kBdiFormsBySize) {
    if (BdiCodec::form_valid(lv, f.k, f.d)) return f.pattern;
  }
  return BdiCodec::kUncompressed;
}

CpackKernelResult cpack_scalar(const std::uint8_t* line) {
  CpackKernelResult r;
  if (all_zero(line)) {
    r.zero_block = true;
    r.bits = CpackZCodec::pattern_bits(CpackZCodec::kZeroBlock);
    return r;
  }
  PatternStats local;
  cpack_detail::CountingSink sink;
  cpack_detail::encode_words(as_line(line), local, sink);
  r.bits = sink.bits;
  for (std::size_t i = 0; i < r.counts.size(); ++i) {
    r.counts[i] = static_cast<std::uint8_t>(local.counts[i + CpackZCodec::kZeroWord]);
  }
  return r;
}

std::uint32_t match_len_scalar(const std::uint8_t* a, const std::uint8_t* b,
                               std::uint32_t max) {
  std::uint32_t i = 0;
  while (i < max && a[i] == b[i]) ++i;
  return i;
}

constexpr ProbeKernels kScalarKernels{"scalar", &fpc_scalar, &bdi_scalar, &cpack_scalar,
                                      &match_len_scalar, &crc32_scalar};

}  // namespace

std::uint32_t crc32_scalar(std::uint32_t reg, const std::uint8_t* data,
                           std::size_t n) noexcept {
  return Crc32(reg).update(data, n).reg();
}

const ProbeKernels* scalar_kernels() noexcept { return &kScalarKernels; }

}  // namespace mgcomp::simd
