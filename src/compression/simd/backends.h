// Per-backend kernel-table getters. Each backend's translation unit is
// always part of the build; when its instruction set is not compiled in
// (compiler lacks the flag, or wrong architecture) the getter returns
// nullptr and the dispatcher skips it.
//
// Internal header — include from simd/*.cc and dispatch.cc only.
#pragma once

#include "compression/simd/probe_kernels.h"

namespace mgcomp::simd {

/// Reference implementation; never null, runs on every CPU.
[[nodiscard]] const ProbeKernels* scalar_kernels() noexcept;

/// Null unless built with AVX2 support (x86 only).
[[nodiscard]] const ProbeKernels* avx2_kernels() noexcept;

/// Null unless built for AArch64 (NEON is baseline there).
[[nodiscard]] const ProbeKernels* neon_kernels() noexcept;

/// The scalar CRC-32 kernel (slicing-by-8, common/crc32.h). Out of line in
/// the scalar TU so the NEON table can share it and the AVX2 kernel can
/// finish a tail with it without compiling Crc32 under -mavx2.
[[nodiscard]] std::uint32_t crc32_scalar(std::uint32_t reg, const std::uint8_t* data,
                                         std::size_t n) noexcept;

}  // namespace mgcomp::simd
