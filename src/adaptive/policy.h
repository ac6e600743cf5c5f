// Compression policies: the per-link logic that decides, for every outgoing
// payload, whether and how to compress it.
//
// A policy instance is stateful and owned by one sender (one GPU's RDMA
// engine); the receiver needs no coordination because every message header
// carries the Comp Alg field (Fig. 4), with value 0 = "not compressed"
// bypassing the decompressor entirely (Section V).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "compression/block_codec.h"
#include "compression/codec.h"
#include "compression/codec_set.h"
#include "compression/cost_model.h"

namespace mgcomp {

class PayloadPool;
class Tracer;

/// Outcome of a policy's decision for one outgoing line.
struct CompressionDecision {
  /// Codec id to put in the message header; kNone when the line travels
  /// raw (either by policy or because compression did not shrink it).
  CodecId wire_codec{CodecId::kNone};
  /// Payload size on the wire in bits (512 when raw).
  std::uint32_t payload_bits{kLineBits};
  /// Cycles spent compressing before the message can enter the fabric.
  /// During a sampling transfer all candidate compressors run concurrently,
  /// so this is the max of their latencies.
  Tick compress_latency{0};
  /// Cycles this line occupies the compressor pipeline (initiation
  /// interval); the sender's unit cannot accept another line sooner.
  Tick compress_occupancy{0};
  /// Cycles the receiver must spend decompressing (0 when raw: the
  /// decompressor is bypassed).
  Tick decompress_latency{0};
  /// Cycles this line occupies the receiver's decompressor pipeline.
  Tick decompress_occupancy{0};
  /// Energy burned by compressor hardware at the sender (includes every
  /// codec that ran, e.g. all three during sampling).
  double compress_energy_pj{0.0};
  /// Energy the receiver will burn decompressing.
  double decompress_energy_pj{0.0};
  /// True if this transfer was a sampling transfer (all codecs ran).
  bool sampled{false};
};

/// Outcome of a policy's decision for one outgoing bulk (multi-line)
/// block. Mirrors CompressionDecision, but the codec space is the block
/// family (block_codec.h) and sizes scale with the block, not the line.
struct BlockDecision {
  /// Block framing to put in the message header; kRaw sends the block
  /// uncompressed (receiver bypasses the block decompressor).
  BlockCodecId alg{BlockCodecId::kRaw};
  /// Payload size on the wire in bits (raw_bytes * 8 when raw).
  std::uint32_t payload_bits{0};
  Tick compress_latency{0};
  Tick compress_occupancy{0};
  Tick decompress_latency{0};
  Tick decompress_occupancy{0};
  double compress_energy_pj{0.0};
  double decompress_energy_pj{0.0};
};

/// Running totals a policy keeps about its own decisions.
struct PolicyStats {
  /// Transfers that went on the wire with each codec id (index by CodecId).
  std::array<std::uint64_t, kNumCodecIds> wire_counts{};
  /// Number of sampling transfers.
  std::uint64_t sampled_transfers{0};
  /// Number of completed sampling phases (i.e. votes taken).
  std::uint64_t votes_taken{0};
  /// How often each codec won a vote (index by CodecId).
  std::array<std::uint64_t, kNumCodecIds> vote_wins{};
  /// Times the adaptive selector pinned raw after a link-error spike
  /// (reliability extension).
  std::uint64_t degrade_events{0};
  /// Transfers sent raw while degraded.
  std::uint64_t degraded_transfers{0};
  /// Bulk (multi-line) transfers decided, total and by block framing.
  /// These ride outside the run fingerprint (new observability fields).
  std::uint64_t bulk_transfers{0};
  std::array<std::uint64_t, kNumBlockCodecIds> block_wire_counts{};

  [[nodiscard]] std::uint64_t total_transfers() const noexcept {
    std::uint64_t t = 0;
    for (const auto c : wire_counts) t += c;
    return t;
  }
};

/// Link-reliability feedback delivered to a sender's policy by its RDMA
/// engine: evidence that the link is corrupting or losing messages.
enum class LinkEvent : std::uint8_t {
  kNackReceived,  ///< a peer rejected one of our messages (CRC failure)
  kTimeout,       ///< a request timed out and was retransmitted
  kHardFailure,   ///< a request exhausted its retry budget
};

/// Snapshot of fabric load. No policy reads it: this type, PressureProbe
/// and CompressionPolicy::set_pressure_probe exist only because
/// benchmark/layers.h still overrides that virtual. They go with the next
/// change to the benchmark, like SystemConfig::shards.
struct FabricPressure {
  Tick busy_cycles{0};  ///< cumulative fabric-busy cycles
  Tick now{0};          ///< current simulation time
};

/// Supplies a FabricPressure; nothing installs one (see FabricPressure).
using PressureProbe = std::function<FabricPressure()>;

/// Abstract per-link compression policy.
class CompressionPolicy {
 public:
  virtual ~CompressionPolicy() = default;

  /// Decides how to send `line`. Called once per outgoing payload, in
  /// transfer order (adaptive policies rely on this ordering).
  [[nodiscard]] virtual CompressionDecision decide(LineView line) = 0;

  /// Decides how to send a bulk (multi-line) block of `size` raw bytes.
  /// Default: raw with zero codec cost — only size-adaptive policies probe
  /// the block codec. The decision reports sizes and costs; the caller
  /// performs the actual encode (the probe/compress exact-size contract
  /// guarantees the encoded frame matches payload_bits).
  [[nodiscard]] virtual BlockDecision decide_block(const std::uint8_t* data,
                                                   std::size_t size) {
    (void)data;
    BlockDecision d;
    d.payload_bits = static_cast<std::uint32_t>(size) * 8;
    ++stats_.bulk_transfers;
    ++stats_.block_wire_counts[static_cast<std::size_t>(BlockCodecId::kRaw)];
    return d;
  }

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// No-op kept only for benchmark/layers.h's override; the system never
  /// calls it (see FabricPressure).
  virtual void set_pressure_probe(PressureProbe probe) { (void)probe; }

  /// Installs the owning endpoint's payload-buffer pool. Policies that
  /// encode borrow their scratch buffer from it and return the storage on
  /// destruction, keeping the steady state allocation-free. Default:
  /// ignored (the no-compression policy never encodes). The pool must
  /// outlive the policy.
  virtual void set_payload_pool(PayloadPool* pool) { (void)pool; }

  /// Link-reliability feedback from the owning RDMA engine. Default:
  /// ignored (only the adaptive policy degrades on unreliable links).
  virtual void on_link_feedback(LinkEvent ev) { (void)ev; }

  /// Installs an event tracer; `track` is the swim lane of the GPU this
  /// policy's sender lives on. Default: ignored (static policies have no
  /// phases worth tracing).
  virtual void set_tracer(Tracer* tracer, std::uint32_t track) {
    (void)tracer;
    (void)track;
  }

  /// Closes any open trace span (e.g. the current policy phase) at end of
  /// run. Default: nothing to flush.
  virtual void trace_flush() {}

  [[nodiscard]] const PolicyStats& stats() const noexcept { return stats_; }

 protected:
  PolicyStats stats_;
};

/// Creates a fresh policy instance for one link/sender.
using PolicyFactory = std::function<std::unique_ptr<CompressionPolicy>(const CodecSet&)>;

/// Never compresses; the baseline the paper normalizes against.
[[nodiscard]] PolicyFactory make_no_compression_policy();

/// Always runs one fixed codec; sends raw when the codec does not shrink
/// the line (Fig. 5's "static" configurations).
[[nodiscard]] PolicyFactory make_static_policy(CodecId codec);

/// What the sampling vote minimizes (Section V: "one of the algorithms is
/// selected based on a predefined criteria (i.e., energy consumption,
/// compressed data size, energy-delay product, etc.)").
enum class SelectionCriterion : std::uint8_t {
  /// Eq. (1): P = N + lambda * (Lc + Ld). The paper's evaluated scheme;
  /// lambda = 0 is the pure compressed-size criterion.
  kPenalty,
  /// Transfer energy: fabric pJ/b for the encoded bits plus codec energy.
  kEnergy,
  /// Energy-delay product: transfer energy x (codec latency + wire time).
  kEnergyDelayProduct,
};

/// Parameters of the adaptive scheme (Section V defaults).
struct AdaptiveParams {
  SelectionCriterion criterion{SelectionCriterion::kPenalty};
  /// Eq. (1)'s latency weight, fixed per system as in the paper; must be
  /// a number >= 0.
  double lambda{6.0};
  /// Transfers profiled per sampling phase (paper: 7).
  std::uint32_t sample_transfers{7};
  /// Transfers the winning codec is kept for after a vote (paper: 300).
  std::uint32_t running_transfers{300};
  /// Compressors integrated in the hardware. Empty = all three. With a
  /// single entry the scheme degenerates to the paper's on/off gating of
  /// one compression circuit (Section V, last paragraph).
  std::vector<CodecId> candidates{};

  /// Fabric energy tier used by the kEnergy / kEnergyDelayProduct
  /// criteria (must match the system's tier for coherent decisions).
  FabricTier energy_tier{FabricTier::kInterDie};
  /// Fabric bytes/cycle used by kEnergyDelayProduct's wire-time term.
  double fabric_bytes_per_cycle{20.0};

  /// Reliability extension: graceful degradation on lossy links. When the
  /// observed link-error rate (NACKs + retransmission timeouts per
  /// outgoing transfer) over a window of `degrade_window` transfers
  /// reaches `degrade_error_threshold`, the selector pins CodecId::kNone
  /// for `degrade_cooldown_transfers` transfers — a corrupted compressed
  /// line costs a full round trip to recover, so a flaky link shifts the
  /// latency/bandwidth trade toward raw — then re-probes with a fresh
  /// sampling phase. `degrade_cooldown_transfers == 0` disables the
  /// mechanism. Zero-cost on a clean link: no errors, no state change.
  std::uint32_t degrade_cooldown_transfers{512};
  std::uint32_t degrade_window{64};
  double degrade_error_threshold{0.05};
};

/// The paper's adaptive scheme: sample -> vote under Eq. (1) -> run.
[[nodiscard]] PolicyFactory make_adaptive_policy(AdaptiveParams params);

}  // namespace mgcomp
