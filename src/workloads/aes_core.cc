#include "workloads/aes_core.h"

#include <bit>

namespace mgcomp::aes {
namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7,
    0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf,
    0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5,
    0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e,
    0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef,
    0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff,
    0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d,
    0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5,
    0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e,
    0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55,
    0x28, 0xdf, 0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[15] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40,
                                    0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d};

std::uint32_t sub_word(std::uint32_t w) noexcept {
  return static_cast<std::uint32_t>(kSbox[w & 0xFF]) |
         (static_cast<std::uint32_t>(kSbox[(w >> 8) & 0xFF]) << 8) |
         (static_cast<std::uint32_t>(kSbox[(w >> 16) & 0xFF]) << 16) |
         (static_cast<std::uint32_t>(kSbox[(w >> 24) & 0xFF]) << 24);
}

std::uint32_t rot_word(std::uint32_t w) noexcept { return (w >> 8) | (w << 24); }

// Round table. A state column is a little-endian word (row r in bits
// 8r..8r+7, the key schedule's packing). kTe[x] is S-box output x mixed
// into column position 0 — bytes (2s, s, s, 3s); rotating it left by 8r
// bits gives the contribution of the byte that ShiftRows moves into row r.
constexpr std::array<std::uint32_t, 256> make_te() noexcept {
  std::array<std::uint32_t, 256> t{};
  for (std::size_t x = 0; x < 256; ++x) {
    const std::uint32_t s = kSbox[x];
    const std::uint32_t s2 = ((s << 1) ^ ((s >> 7) * 0x1b)) & 0xFF;
    t[x] = s2 | (s << 8) | (s << 16) | ((s2 ^ s) << 24);
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTe = make_te();

using State = std::array<std::uint32_t, 4>;

std::uint32_t byte_of(std::uint32_t w, std::size_t row) noexcept {
  return (w >> (8 * row)) & 0xFF;
}

// SubBytes, ShiftRows (row r of column c comes from column c + r) and
// MixColumns of one output column: four table lookups.
std::uint32_t round_column(const State& s, std::size_t c) noexcept {
  return kTe[byte_of(s[c], 0)] ^ std::rotl(kTe[byte_of(s[(c + 1) % 4], 1)], 8) ^
         std::rotl(kTe[byte_of(s[(c + 2) % 4], 2)], 16) ^
         std::rotl(kTe[byte_of(s[(c + 3) % 4], 3)], 24);
}

// The final round's column: SubBytes and ShiftRows only.
std::uint32_t final_column(const State& s, std::size_t c) noexcept {
  return static_cast<std::uint32_t>(kSbox[byte_of(s[c], 0)]) |
         (static_cast<std::uint32_t>(kSbox[byte_of(s[(c + 1) % 4], 1)]) << 8) |
         (static_cast<std::uint32_t>(kSbox[byte_of(s[(c + 2) % 4], 2)]) << 16) |
         (static_cast<std::uint32_t>(kSbox[byte_of(s[(c + 3) % 4], 3)]) << 24);
}

}  // namespace

std::uint8_t sbox(std::uint8_t x) noexcept { return kSbox[x]; }

KeySchedule expand_key(const Key& key) noexcept {
  KeySchedule ks{};
  constexpr std::size_t nk = kKeyBytes / 4;  // 8
  for (std::size_t i = 0; i < nk; ++i) {
    ks[i] = static_cast<std::uint32_t>(key[4 * i]) |
            (static_cast<std::uint32_t>(key[4 * i + 1]) << 8) |
            (static_cast<std::uint32_t>(key[4 * i + 2]) << 16) |
            (static_cast<std::uint32_t>(key[4 * i + 3]) << 24);
  }
  for (std::size_t i = nk; i < kScheduleWords; ++i) {
    std::uint32_t t = ks[i - 1];
    if (i % nk == 0) {
      t = sub_word(rot_word(t)) ^ kRcon[i / nk];
    } else if (i % nk == 4) {
      t = sub_word(t);
    }
    ks[i] = ks[i - nk] ^ t;
  }
  return ks;
}

void encrypt_block(Block& block, const KeySchedule& ks) noexcept {
  State s{};
  for (std::size_t c = 0; c < 4; ++c) {
    s[c] = (static_cast<std::uint32_t>(block[4 * c]) |
            (static_cast<std::uint32_t>(block[4 * c + 1]) << 8) |
            (static_cast<std::uint32_t>(block[4 * c + 2]) << 16) |
            (static_cast<std::uint32_t>(block[4 * c + 3]) << 24)) ^
           ks[c];
  }
  for (std::size_t round = 1; round < kNumRounds; ++round) {
    State t{};
    for (std::size_t c = 0; c < 4; ++c) t[c] = round_column(s, c) ^ ks[round * 4 + c];
    s = t;
  }
  for (std::size_t c = 0; c < 4; ++c) {
    const std::uint32_t w = final_column(s, c) ^ ks[kNumRounds * 4 + c];
    block[4 * c] = static_cast<std::uint8_t>(w);
    block[4 * c + 1] = static_cast<std::uint8_t>(w >> 8);
    block[4 * c + 2] = static_cast<std::uint8_t>(w >> 16);
    block[4 * c + 3] = static_cast<std::uint8_t>(w >> 24);
  }
}

}  // namespace mgcomp::aes
