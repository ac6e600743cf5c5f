// Inter-GPU communication messages, following Fig. 4 of the paper.
//
// Four message types flow over the fabric. Only Data-Ready and Write
// carry payloads; their headers include the 4-bit Comp Alg field naming
// the compression algorithm (0 = not compressed, which lets the receiver
// bypass its decompressor). Payloads are byte-aligned on the wire
// ("we reserve extra bits to align the payload with a full byte").
//
// Header layouts (bits):
//   Read Req   : type(4) + msg id(16) + phys addr(48) + length(32) + reserved(28) = 128
//   Data Ready : type(4) + rsp id(16) + comp alg(4) + reserved(8)                 =  32
//   Write Req  : type(4) + msg id(16) + phys addr(48) + length(32) + comp alg(4)
//                + reserved(24)                                                   = 128
//   Write ACK  : type(4) + rsp id(16) + reserved(12)                              =  32
//   NACK       : type(4) + rsp id(16) + reserved(12)                              =  32
//
// The NACK is the reliability extension's fifth type: a receiver whose CRC
// check fails on a payload-bearing message sends one back so the sender can
// retransmit without waiting for the full timeout. The CRC itself is
// modeled as riding in the reserved header bits, so wire sizes stay exactly
// the paper's Fig. 4 values.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "compression/block_codec.h"
#include "compression/codec.h"

namespace mgcomp {

enum class MsgType : std::uint8_t { kReadReq, kDataReady, kWriteReq, kWriteAck, kNack };

/// Number of MsgType values (sizes fixed-size per-type stat arrays).
inline constexpr std::size_t kNumMsgTypes = 5;

[[nodiscard]] constexpr std::string_view msg_type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::kReadReq: return "ReadReq";
    case MsgType::kDataReady: return "DataReady";
    case MsgType::kWriteReq: return "WriteReq";
    case MsgType::kWriteAck: return "WriteAck";
    case MsgType::kNack: return "Nack";
  }
  return "?";
}

struct Message {
  MsgType type{MsgType::kReadReq};
  /// Request sequence number (Msg ID) or the request it answers (Rsp ID);
  /// enables out-of-order fulfillment (Section VI-B).
  std::uint16_t id{0};
  EndpointId src{};
  EndpointId dst{};
  /// Line-aligned physical address (Read/Write requests).
  Addr addr{0};
  /// Requested/written length in bytes (Read/Write requests).
  std::uint32_t length{kLineBytes};
  /// Compression algorithm of the payload (Data-Ready / Write requests).
  CodecId comp_alg{CodecId::kNone};
  /// Encoded payload size in bits (Data-Ready / Write requests; 512 raw).
  std::uint32_t payload_bits{0};
  /// Functional payload (the *decoded* line) for Data-Ready/Write.
  Line data{};
  /// Bulk (multi-line) functional payload: the decoded block bytes for a
  /// Data-Ready/Write whose length exceeds one line. Empty on the
  /// line-granularity path, so line messages are wire- and CRC-identical
  /// to the pre-bulk protocol.
  std::vector<std::uint8_t> block{};
  /// Block framing of a bulk payload (rides in the Read/Write header's
  /// reserved bits, alongside the CRC).
  BlockCodecId block_alg{BlockCodecId::kRaw};
  /// Receiver-side decompression cost, precomputed by the sender's policy
  /// decision so the receiver model need not re-derive it.
  Tick decompress_latency{0};
  Tick decompress_occupancy{0};
  double decompress_energy_pj{0.0};
  /// Link-layer CRC-32 over header fields + payload, stamped by the fabric
  /// at send and checked by the receiving RDMA engine. Rides in reserved
  /// header bits, so it does not change wire_bytes().
  std::uint32_t crc{0};

  [[nodiscard]] bool has_payload() const noexcept {
    return type == MsgType::kDataReady || type == MsgType::kWriteReq;
  }

  /// True for the bulk fast path: a request/response spanning multiple
  /// lines (up to one page). Bulk payloads live in `block`, not `data`.
  [[nodiscard]] bool is_bulk() const noexcept { return length > kLineBytes; }

  /// Header size in bits, per Fig. 4.
  [[nodiscard]] std::uint32_t header_bits() const noexcept {
    switch (type) {
      case MsgType::kReadReq: return 128;
      case MsgType::kDataReady: return 32;
      case MsgType::kWriteReq: return 128;
      case MsgType::kWriteAck: return 32;
      case MsgType::kNack: return 32;
    }
    return 0;
  }

  /// Total size on the wire in bytes: header plus byte-aligned payload.
  [[nodiscard]] std::uint32_t wire_bytes() const noexcept {
    const std::uint32_t payload = has_payload() ? (payload_bits + 7) / 8 : 0;
    return header_bits() / 8 + payload;
  }
};

/// Link-layer CRC-32 of everything the wire carries: the header fields
/// and, for payload-bearing types, the line data or (bulk) the block
/// framing id and block bytes. The model's receiver-convenience fields
/// (decompress_* hints) are not wire content and are excluded, so a fault
/// that flips any covered bit is always detectable. Runs the dispatched
/// SIMD `crc32` kernel (message.cc); every backend gives the same digest.
[[nodiscard]] std::uint32_t message_crc(const Message& m) noexcept;

}  // namespace mgcomp
