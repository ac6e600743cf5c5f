#include "fabric/message.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/crc32.h"
#include "compression/simd/dispatch.h"

namespace mgcomp {
namespace {

// The header is packed with memcpy in host byte order, which must be the
// little-endian wire order the digest has always used.
static_assert(std::endian::native == std::endian::little,
              "message_crc packs header fields little-endian");

// Header image, in wire order: type(1) id(2) src(4) dst(4) addr(8)
// length(4) comp_alg(1) payload_bits(4); a bulk payload adds block_alg(1).
constexpr std::size_t kHeaderBytes = 28;
static_assert(kHeaderBytes == 1 + sizeof(Message::id) + 2 * sizeof(EndpointId::value) +
                                  sizeof(Message::addr) + sizeof(Message::length) + 1 +
                                  sizeof(Message::payload_bits));

// Leading zero bytes that round the digested image up to whole 16-byte
// blocks for the fold kernel: 4 + 28 (+ 64 line bytes) = 32 or 96, and
// 3 + 29 = 32 ahead of a bulk block. Starting the register where those
// zeros advance it to the IEEE preset keeps every digest unchanged.
constexpr std::size_t kLinePad = 4;
constexpr std::size_t kBulkPad = 3;
static_assert((kLinePad + kHeaderBytes) % 16 == 0 && kLineBytes % 16 == 0);
static_assert((kBulkPad + kHeaderBytes + 1) % 16 == 0);
constexpr std::uint32_t kLineSeed = Crc32::rewind_zeros(Crc32::kInitialRegister, kLinePad);
constexpr std::uint32_t kBulkSeed = Crc32::rewind_zeros(Crc32::kInitialRegister, kBulkPad);

template <typename T>
std::uint8_t* put(std::uint8_t* p, T v) noexcept {
  std::memcpy(p, &v, sizeof v);
  return p + sizeof v;
}

}  // namespace

std::uint32_t message_crc(const Message& m) noexcept {
  const bool bulk = m.has_payload() && m.is_bulk();
  const std::size_t pad = bulk ? kBulkPad : kLinePad;
  alignas(16) std::array<std::uint8_t, kLinePad + kHeaderBytes + kLineBytes> image;
  std::memset(image.data(), 0, kLinePad);  // a bulk header overwrites the last
  std::uint8_t* p = image.data() + pad;
  p = put(p, static_cast<std::uint8_t>(m.type));
  p = put(p, m.id);
  p = put(p, m.src.value);
  p = put(p, m.dst.value);
  p = put(p, m.addr);
  p = put(p, m.length);
  p = put(p, static_cast<std::uint8_t>(m.comp_alg));
  p = put(p, m.payload_bits);
  if (bulk) {
    p = put(p, static_cast<std::uint8_t>(m.block_alg));
  } else if (m.has_payload()) {
    std::memcpy(p, m.data.data(), kLineBytes);
    p += kLineBytes;
  }
  const auto crc32 = simd::kernels().crc32;
  std::uint32_t reg = crc32(bulk ? kBulkSeed : kLineSeed, image.data(),
                            static_cast<std::size_t>(p - image.data()));
  if (bulk) reg = crc32(reg, m.block.data(), m.block.size());
  return Crc32(reg).value();
}

}  // namespace mgcomp
