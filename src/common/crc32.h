// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the scalar
// reference with an incremental update API.
//
// The link layer checks every fabric message with this CRC: the sender
// stamps it, the receiving RDMA engine verifies it before acting on the
// message, and a mismatch triggers the NACK/retransmission protocol. The
// fabric's message_crc() does not call this class directly. It runs the
// `crc32` kernel of the SIMD dispatch table (compression/simd/), whose AVX2
// backend folds 16-byte blocks by carry-less multiplication; the scalar
// backend is update() below, and every backend must match it bit for bit.
//
// update() digests 8 bytes per step with slicing-by-8 (eight constexpr
// tables, one 64-bit load per step); update_bytewise() is the classic
// byte-at-a-time loop, kept for the tail and as the reference the tests
// compare against. All tables are constexpr, so the check adds no startup
// cost and stays allocation-free.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mgcomp {

// update() reads 8-byte chunks with memcpy and folds them as one
// little-endian integer.
static_assert(std::endian::native == std::endian::little,
              "Crc32::update assumes a little-endian host");

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

// Slicing-by-8 tables: kCrc32Slices[k][b] advances a state whose low byte
// is b across k additional zero bytes, letting 8 input bytes fold in one
// step of 8 independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_slices() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = make_crc32_table();
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[s][i] = t[0][t[s - 1][i] & 0xFFu] ^ (t[s - 1][i] >> 8);
    }
  }
  return t;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc32Slices =
    make_crc32_slices();

}  // namespace detail

class Crc32 {
 public:
  /// The register before any input (IEEE 802.3 presets all ones).
  static constexpr std::uint32_t kInitialRegister = 0xFFFFFFFFu;

  constexpr Crc32() = default;

  /// Resumes from a raw register, e.g. one a dispatched kernel returned.
  constexpr explicit Crc32(std::uint32_t reg) noexcept : state_(reg) {}

  /// Digests `n` bytes: 8 at a time via slicing-by-8, tail bytewise.
  /// Resumable at any byte boundary — splitting one buffer across calls
  /// yields the same digest as one call (the tests check every split).
  Crc32& update(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const std::uint8_t*>(data);
    const auto& t = detail::kCrc32Slices;
    std::uint32_t crc = state_;
    while (n >= 8) {
      std::uint64_t chunk = 0;
      std::memcpy(&chunk, p, 8);
      chunk ^= crc;
      crc = t[7][chunk & 0xFFu] ^ t[6][(chunk >> 8) & 0xFFu] ^
            t[5][(chunk >> 16) & 0xFFu] ^ t[4][(chunk >> 24) & 0xFFu] ^
            t[3][(chunk >> 32) & 0xFFu] ^ t[2][(chunk >> 40) & 0xFFu] ^
            t[1][(chunk >> 48) & 0xFFu] ^ t[0][(chunk >> 56) & 0xFFu];
      p += 8;
      n -= 8;
    }
    state_ = crc;
    return update_bytewise(p, n);
  }

  /// Reference byte-at-a-time digest; bit-identical to update() by
  /// construction of the slice tables (and by test).
  Crc32& update_bytewise(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state_ = detail::kCrc32Table[(state_ ^ p[i]) & 0xFFu] ^ (state_ >> 8);
    }
    return *this;
  }

  /// The raw register (no final inversion), for resuming in a kernel.
  [[nodiscard]] constexpr std::uint32_t reg() const noexcept { return state_; }

  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  /// One-shot digest of a buffer ("123456789" -> 0xCBF43926).
  [[nodiscard]] static std::uint32_t of(const void* data, std::size_t n) noexcept {
    return Crc32{}.update(data, n).value();
  }

  /// The register from which `zeros` zero bytes advance to `reg`. A zero
  /// byte maps r to table[r & 0xFF] ^ (r >> 8), and the top bytes of the
  /// 256 table entries are all distinct, so the top byte of the result
  /// names the table entry and each step inverts exactly. Lets a caller
  /// prepend zero bytes to a buffer (to align it) without changing its
  /// digest: start at rewind_zeros(kInitialRegister, k) instead.
  [[nodiscard]] static constexpr std::uint32_t rewind_zeros(std::uint32_t reg,
                                                            std::size_t zeros) noexcept {
    for (std::size_t z = 0; z < zeros; ++z) {
      std::uint32_t i = 0;
      while ((detail::kCrc32Table[i] >> 24) != (reg >> 24)) ++i;
      reg = ((reg ^ detail::kCrc32Table[i]) << 8) | i;
    }
    return reg;
  }

 private:
  std::uint32_t state_{kInitialRegister};
};

}  // namespace mgcomp
