// CRC-32: the slicing-by-8 reference against the bytewise loop, the
// dispatched crc32 kernel of every SIMD backend against both, and
// message_crc() against a field-by-field bytewise digest. The link-layer
// CRC guards the fabric's NACK/retransmission protocol, so every fast path
// must be bit-exact: identical digests on every length, at every split
// point of an incremental update, and on every message shape.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "compression/simd/dispatch.h"
#include "fabric/message.h"

namespace mgcomp {
namespace {

std::vector<std::uint8_t> random_buffer(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> buf(n);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  return buf;
}

std::uint32_t bytewise_of(const std::uint8_t* data, std::size_t n) {
  Crc32 c;
  c.update_bytewise(data, n);
  return c.value();
}

TEST(Crc32, CheckValue) {
  // The standard CRC-32/IEEE check value.
  EXPECT_EQ(Crc32::of("123456789", 9), 0xCBF43926U);
}

TEST(Crc32, EmptyBuffer) {
  EXPECT_EQ(Crc32{}.value(), 0x00000000U);
  EXPECT_EQ(Crc32::of(nullptr, 0), Crc32{}.value());
}

TEST(Crc32, SlicedMatchesBytewiseOnAllLengths) {
  // Every length 0..256 exercises all (full 8-byte blocks, tail length)
  // combinations around the slicing boundary.
  const std::vector<std::uint8_t> buf = random_buffer(256, 0x511CE);
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    EXPECT_EQ(Crc32::of(buf.data(), len), bytewise_of(buf.data(), len))
        << "length " << len;
  }
}

TEST(Crc32, SlicedMatchesBytewiseOnRandomBuffers) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(0xABCD + seed);
    const std::vector<std::uint8_t> buf =
        random_buffer(1 + rng.below(2048), 0xF00D + seed);
    EXPECT_EQ(Crc32::of(buf.data(), buf.size()),
              bytewise_of(buf.data(), buf.size()))
        << "seed " << seed << " size " << buf.size();
  }
}

TEST(Crc32, IncrementalUpdateSplitAtEveryOffset) {
  // update() must be resumable at any byte boundary: feeding [0, split) then
  // [split, n) equals one whole-buffer call, for every split. This covers
  // the mixed case where a sliced prefix leaves the state mid-stream and
  // the resumed call re-enters the sliced loop at a different alignment.
  const std::vector<std::uint8_t> buf = random_buffer(96, 0x5EED);
  const std::uint32_t whole = Crc32::of(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    Crc32 c;
    c.update(buf.data(), split);
    c.update(buf.data() + split, buf.size() - split);
    EXPECT_EQ(c.value(), whole) << "split at " << split;
  }
}

TEST(Crc32, MixedSlicedAndBytewiseUpdatesCompose) {
  const std::vector<std::uint8_t> buf = random_buffer(80, 0xCAFE);
  const std::uint32_t whole = bytewise_of(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    Crc32 c;
    c.update(buf.data(), split);
    c.update_bytewise(buf.data() + split, buf.size() - split);
    EXPECT_EQ(c.value(), whole) << "split at " << split;
  }
}

TEST(Crc32, RewindZerosInvertsZeroBytes) {
  // k zero bytes fed from rewind_zeros(r, k) land exactly on r, for the
  // preset register and for arbitrary mid-stream ones.
  const std::vector<std::uint8_t> zeros(16, 0);
  Rng rng(0x2E80);
  for (int trial = 0; trial < 64; ++trial) {
    const std::uint32_t reg = trial == 0 ? Crc32::kInitialRegister
                                         : static_cast<std::uint32_t>(rng.next());
    for (std::size_t k = 0; k <= zeros.size(); ++k) {
      Crc32 c(Crc32::rewind_zeros(reg, k));
      EXPECT_EQ(c.update_bytewise(zeros.data(), k).reg(), reg)
          << "register " << reg << ", " << k << " zero bytes";
    }
  }
}

// ---------------------------------------------------------------------------
// The dispatched kernel, on every available backend.

/// Runs `check` once per available backend with that backend active, then
/// restores whichever backend was active before.
template <typename Check>
void on_every_backend(Check check) {
  const simd::Backend prev = simd::active_backend();
  for (const simd::Backend b : simd::available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    SCOPED_TRACE(std::string("backend ") + std::string(simd::backend_name(b)));
    check();
  }
  ASSERT_TRUE(simd::set_backend(prev));
}

std::uint32_t kernel_reg(std::uint32_t reg, const std::uint8_t* data, std::size_t n) {
  return simd::kernels().crc32(reg, data, n);
}

TEST(Crc32Kernel, MatchesBytewiseOnEveryLengthTo4200) {
  // Lengths 0..4200 cover every (four-lane, one-lane, tail) split of the
  // fold kernel, from the preset register and from a mid-stream one.
  const std::vector<std::uint8_t> buf = random_buffer(4200, 0x4200);
  const std::uint32_t mid = Crc32{}.update_bytewise("mid-stream", 10).reg();
  std::vector<std::uint32_t> from_init(buf.size() + 1);
  std::vector<std::uint32_t> from_mid(buf.size() + 1);
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    from_init[len] = Crc32{}.update_bytewise(buf.data(), len).reg();
    from_mid[len] = Crc32(mid).update_bytewise(buf.data(), len).reg();
  }
  on_every_backend([&] {
    for (std::size_t len = 0; len <= buf.size(); ++len) {
      ASSERT_EQ(kernel_reg(Crc32::kInitialRegister, buf.data(), len), from_init[len])
          << "length " << len;
      ASSERT_EQ(kernel_reg(mid, buf.data(), len), from_mid[len]) << "length " << len;
    }
  });
}

TEST(Crc32Kernel, ResumesAtEverySplitPoint) {
  // A line message image is 96 bytes and a 4 KB bulk message is a 32-byte
  // header plus its block; splitting either anywhere must not matter.
  for (const std::size_t size : {std::size_t{96}, std::size_t{4128}}) {
    const std::vector<std::uint8_t> buf = random_buffer(size, 0x5EED + size);
    const std::uint32_t whole = Crc32{}.update_bytewise(buf.data(), size).reg();
    on_every_backend([&] {
      for (std::size_t split = 0; split <= size; ++split) {
        const std::uint32_t head = kernel_reg(Crc32::kInitialRegister, buf.data(), split);
        ASSERT_EQ(kernel_reg(head, buf.data() + split, size - split), whole)
            << "size " << size << ", split at " << split;
      }
    });
  }
}

TEST(Crc32Kernel, MatchesBytewiseOnRandomBuffers) {
  on_every_backend([] {
    for (std::uint64_t seed = 0; seed < 256; ++seed) {
      Rng rng(0xC1C1 + seed);
      const std::vector<std::uint8_t> buf = random_buffer(rng.below(8192), seed);
      const auto reg = static_cast<std::uint32_t>(rng.next());
      ASSERT_EQ(kernel_reg(reg, buf.data(), buf.size()),
                Crc32(reg).update_bytewise(buf.data(), buf.size()).reg())
          << "seed " << seed << " size " << buf.size();
    }
  });
}

// ---------------------------------------------------------------------------
// message_crc() against the field-by-field digest.

/// Feeds an integral value one byte at a time, least-significant first:
/// the wire order every message header field is digested in.
template <typename T>
void feed(Crc32& c, T v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const auto b = static_cast<std::uint8_t>(u >> (8 * i));
    c.update_bytewise(&b, 1);
  }
}

std::uint32_t reference_message_crc(const Message& m) {
  Crc32 c;
  feed(c, static_cast<std::uint8_t>(m.type));
  feed(c, m.id);
  feed(c, m.src.value);
  feed(c, m.dst.value);
  feed(c, m.addr);
  feed(c, m.length);
  feed(c, static_cast<std::uint8_t>(m.comp_alg));
  feed(c, m.payload_bits);
  if (m.has_payload()) {
    if (m.is_bulk()) {
      feed(c, static_cast<std::uint8_t>(m.block_alg));
      c.update_bytewise(m.block.data(), m.block.size());
    } else {
      c.update_bytewise(m.data.data(), m.data.size());
    }
  }
  return c.value();
}

Message random_message(Rng& rng) {
  Message m;
  m.type = static_cast<MsgType>(rng.below(kNumMsgTypes));
  m.id = static_cast<std::uint16_t>(rng.next());
  m.src = EndpointId{static_cast<std::uint32_t>(rng.next())};
  m.dst = EndpointId{static_cast<std::uint32_t>(rng.next())};
  m.addr = rng.next();
  // Half line-sized, half 1-64 lines (a one-line "block" is a line message).
  m.length = rng.chance(0.5) ? static_cast<std::uint32_t>(rng.below(kLineBytes + 1))
                             : static_cast<std::uint32_t>((1 + rng.below(64)) * kLineBytes);
  m.comp_alg = static_cast<CodecId>(rng.below(kNumCodecIds));
  m.payload_bits = static_cast<std::uint32_t>(rng.next());
  m.block_alg = static_cast<BlockCodecId>(rng.below(2));
  for (auto& b : m.data) b = static_cast<std::uint8_t>(rng.next());
  if (m.is_bulk() && m.has_payload()) {
    m.block.resize(m.length);
    for (auto& b : m.block) b = static_cast<std::uint8_t>(rng.next());
  }
  return m;
}

TEST(MessageCrc, MatchesFieldByFieldDigestOnRandomMessages) {
  Rng rng(0x3E55A6E);
  std::vector<Message> msgs;
  std::vector<std::uint32_t> refs;
  std::array<std::array<int, 2>, kNumMsgTypes> shapes{};  // [type][bulk]
  for (int i = 0; i < 10000; ++i) {
    msgs.push_back(random_message(rng));
    refs.push_back(reference_message_crc(msgs.back()));
    ++shapes[static_cast<std::size_t>(msgs.back().type)][msgs.back().is_bulk() ? 1 : 0];
  }
  for (std::size_t t = 0; t < kNumMsgTypes; ++t) {
    EXPECT_GT(shapes[t][0], 0) << "no line " << msg_type_name(static_cast<MsgType>(t));
    EXPECT_GT(shapes[t][1], 0) << "no bulk " << msg_type_name(static_cast<MsgType>(t));
  }
  on_every_backend([&] {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      ASSERT_EQ(message_crc(msgs[i]), refs[i])
          << "message " << i << ": " << msg_type_name(msgs[i].type) << ", length "
          << msgs[i].length;
    }
  });
}

TEST(MessageCrc, DigestsPinned) {
  // Recorded with the field-by-field digest the fabric used before the
  // fold kernel; a change here breaks the wire format.
  Message read_req;
  read_req.type = MsgType::kReadReq;
  read_req.id = 0x0BEE;
  read_req.src = EndpointId{3};
  read_req.dst = EndpointId{1};
  read_req.addr = 0x0000123456789AC0ULL;
  read_req.length = kLineBytes;

  Message data_ready;
  data_ready.type = MsgType::kDataReady;
  data_ready.id = 0x1234;
  data_ready.src = EndpointId{1};
  data_ready.dst = EndpointId{2};
  data_ready.addr = 0x40;
  data_ready.comp_alg = CodecId::kFpc;
  data_ready.payload_bits = 500;
  for (std::size_t i = 0; i < kLineBytes; ++i) {
    data_ready.data[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }

  Message bulk_write;
  bulk_write.type = MsgType::kWriteReq;
  bulk_write.id = 0xFACE;
  bulk_write.src = EndpointId{2};
  bulk_write.dst = EndpointId{4};
  bulk_write.addr = 0x7000;
  bulk_write.length = kPageBytes;
  bulk_write.payload_bits = kPageBytes * 8;
  bulk_write.block_alg = BlockCodecId::kLzss;
  bulk_write.block.resize(kPageBytes);
  for (std::size_t i = 0; i < kPageBytes; ++i) {
    bulk_write.block[i] = static_cast<std::uint8_t>((i * 131U) ^ (i >> 5));
  }

  on_every_backend([&] {
    EXPECT_EQ(message_crc(read_req), 0x3550027EU);
    EXPECT_EQ(message_crc(data_ready), 0x3E5F9E5EU);
    EXPECT_EQ(message_crc(bulk_write), 0xBE762955U);
  });
}

}  // namespace
}  // namespace mgcomp
