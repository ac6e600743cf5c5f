// Minimal, correct AES-256 block cipher (FIPS-197), used by the AES
// workload so that the bytes moved between GPUs are genuine ciphertext-
// derived values (i.e., genuinely incompressible), not a stand-in.
//
// 32-bit T-table implementation: each of rounds 1-13 is four lookups per
// column into one 256-entry table (computed at compile time from the
// S-box; rotations give the other three row positions), and the final
// round is S-box only; 14 rounds with an expanded 240-byte key schedule.
// It runs for every block of every AES trace the benchmark generates, so
// its speed shows up in host time.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace mgcomp::aes {

inline constexpr std::size_t kBlockBytes = 16;
inline constexpr std::size_t kKeyBytes = 32;       // AES-256
inline constexpr std::size_t kNumRounds = 14;
inline constexpr std::size_t kScheduleWords = 4 * (kNumRounds + 1);  // 60

using Block = std::array<std::uint8_t, kBlockBytes>;
using Key = std::array<std::uint8_t, kKeyBytes>;
using KeySchedule = std::array<std::uint32_t, kScheduleWords>;

/// Expands a 256-bit key into the 60-word round-key schedule.
[[nodiscard]] KeySchedule expand_key(const Key& key) noexcept;

/// Encrypts one 16-byte block in place.
void encrypt_block(Block& block, const KeySchedule& ks) noexcept;

/// FIPS-197 S-box lookup (exposed for tests).
[[nodiscard]] std::uint8_t sbox(std::uint8_t x) noexcept;

}  // namespace mgcomp::aes
