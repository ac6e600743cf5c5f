// Runtime SIMD backend selection (ISSUE 4).
//
// The per-line codec kernels, BlockLzss's match extension and the fabric's
// CRC-32 exist in up to three implementations: scalar (reference, always
// present), AVX2, and NEON. At first use the
// dispatcher picks the best backend the build and the CPU both support,
// unless overridden:
//
//   - environment: MGCOMP_SIMD=scalar|avx2|neon
//   - programmatic: set_backend() (used by the --simd CLI flags and tests)
//
// An override naming an unknown or unavailable backend warns on stderr and
// falls back to the automatic choice. Every backend is bit-identical by
// contract — selection never changes simulation results, only throughput
// (enforced by tests/simd_test.cc and tests/perf_identity_test.cc).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "compression/simd/probe_kernels.h"

namespace mgcomp::simd {

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

inline constexpr std::size_t kNumBackends = 3;

/// Stable lowercase name ("scalar", "avx2", "neon").
[[nodiscard]] std::string_view backend_name(Backend b) noexcept;

/// Inverse of backend_name(); nullopt for unknown strings.
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name) noexcept;

/// True when the backend is compiled in AND the running CPU supports it.
[[nodiscard]] bool backend_available(Backend b) noexcept;

/// All available backends, scalar first. Never empty.
[[nodiscard]] std::vector<Backend> available_backends();

/// The fastest available backend (avx2 > neon > scalar).
[[nodiscard]] Backend best_backend() noexcept;

/// Currently active backend (resolves the MGCOMP_SIMD override on first use).
[[nodiscard]] Backend active_backend() noexcept;

/// Selects `b` for all subsequent kernel calls. Returns false (and leaves
/// the active backend unchanged) if `b` is unavailable.
bool set_backend(Backend b) noexcept;

/// Name-based convenience for CLI flags; unknown names return false.
bool set_backend(std::string_view name) noexcept;

/// Kernel table of the active backend.
[[nodiscard]] const ProbeKernels& kernels() noexcept;

}  // namespace mgcomp::simd
