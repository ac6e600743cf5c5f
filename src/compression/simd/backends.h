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

}  // namespace mgcomp::simd
