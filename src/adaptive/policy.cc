#include "adaptive/policy.h"

#include <algorithm>
#include <utility>

#include "adaptive/penalty.h"
#include "common/assert.h"
#include "common/payload_pool.h"
#include "compression/block_lzss.h"
#include "obs/tracer.h"

namespace mgcomp {
namespace {

/// Static-storage phase labels for the tracer (recording never allocates).
[[nodiscard]] const char* running_phase_name(CodecId id) noexcept {
  switch (id) {
    case CodecId::kNone: return "running(raw)";
    case CodecId::kFpc: return "running(FPC)";
    case CodecId::kBdi: return "running(BDI)";
    case CodecId::kCpackZ: return "running(C-Pack+Z)";
  }
  return "running";
}

/// Fills in the latency/energy fields of a decision for the case where one
/// codec ran and produced `comp`. When the codec failed to shrink the line
/// the data goes raw, but the compressor still burned its latency and
/// energy (the hardware ran); the receiver-side decompressor is bypassed.
CompressionDecision single_codec_decision(const Compressed& comp, CodecId attempted) {
  const CodecCost cost = codec_cost(attempted);
  CompressionDecision d;
  d.compress_latency = cost.compress_cycles;
  d.compress_occupancy = cost.compress_ii;
  d.compress_energy_pj = cost.compress_energy_pj();
  if (comp.is_compressed()) {
    d.wire_codec = attempted;
    d.payload_bits = comp.size_bits;
    d.decompress_latency = cost.decompress_cycles;
    d.decompress_occupancy = cost.decompress_ii;
    d.decompress_energy_pj = cost.decompress_energy_pj();
  } else {
    d.wire_codec = CodecId::kNone;
    d.payload_bits = kLineBits;
  }
  return d;
}

class NoCompressionPolicy final : public CompressionPolicy {
 public:
  [[nodiscard]] CompressionDecision decide(LineView line) override {
    (void)line;
    CompressionDecision d;  // defaults: raw, zero cost
    ++stats_.wire_counts[static_cast<std::size_t>(CodecId::kNone)];
    return d;
  }

  [[nodiscard]] std::string_view name() const noexcept override { return "None"; }
};

class StaticPolicy final : public CompressionPolicy {
 public:
  StaticPolicy(const CodecSet& codecs, CodecId codec)
      : codec_(&codecs.get(codec)), id_(codec) {}

  ~StaticPolicy() override {
    if (pool_ != nullptr) pool_->release(std::move(scratch_.payload));
  }

  [[nodiscard]] CompressionDecision decide(LineView line) override {
    // The one candidate is always the winner, so encode directly into the
    // recycled scratch buffer (no per-transfer allocation).
    codec_->compress_into(line, scratch_);
    CompressionDecision d = single_codec_decision(scratch_, id_);
    ++stats_.wire_counts[static_cast<std::size_t>(d.wire_codec)];
    return d;
  }

  void set_payload_pool(PayloadPool* pool) override {
    pool_ = pool;
    scratch_.payload = pool_->acquire();
  }

  [[nodiscard]] std::string_view name() const noexcept override { return codec_->name(); }

 private:
  const Codec* codec_;
  CodecId id_;
  PayloadPool* pool_{nullptr};
  Compressed scratch_;
};

/// Section V state machine. Starts in the sampling phase. Each sampling
/// transfer runs all three compressors concurrently (latency = max of the
/// three, energy = sum of the three) and records which candidate —
/// including "send raw" — minimizes Eq. (1). After `sample_transfers`
/// samples, the candidate with the most wins is locked in for
/// `running_transfers` transfers, then sampling repeats.
class AdaptivePolicy final : public CompressionPolicy {
 public:
  AdaptivePolicy(const CodecSet& codecs, AdaptiveParams params)
      : codecs_(&codecs), params_(params), penalty_(params.lambda) {
    MGCOMP_CHECK(params_.sample_transfers > 0);
    MGCOMP_CHECK_MSG(params_.lambda >= 0.0, "AdaptiveParams: lambda must be a number >= 0");
    if (params_.candidates.empty()) {
      real_ = codecs.real_codecs();
      full_candidate_set_ = true;  // sampling can use the fused probe
    } else {
      for (const CodecId id : params_.candidates) {
        MGCOMP_CHECK_MSG(id != CodecId::kNone, "kNone is implicit, not a candidate");
        real_.push_back(&codecs.get(id));
      }
    }
    // Latency/energy of running all candidate compressors concurrently.
    for (const Codec* c : real_) {
      const CodecCost cost = codec_cost(c->id());
      sample_latency_ = std::max(sample_latency_, cost.compress_cycles);
      sample_occupancy_ = std::max(sample_occupancy_, cost.compress_ii);
      sample_energy_pj_ += cost.compress_energy_pj();
    }
  }

  ~AdaptivePolicy() override {
    if (pool_ != nullptr) pool_->release(std::move(scratch_.payload));
  }

  [[nodiscard]] CompressionDecision decide(LineView line) override {
    CompressionDecision d;
    if (degrade_remaining_ > 0) {
      // Degraded: send raw with zero codec cost; when the cool-down ends,
      // re-probe from a fresh sampling phase.
      --degrade_remaining_;
      ++stats_.degraded_transfers;
      if (degrade_remaining_ == 0) reset_to_sampling();
    } else {
      d = phase_ == Phase::kSampling ? decide_sampling(line) : decide_running(line);
      note_window_transfer();
    }
    ++stats_.wire_counts[static_cast<std::size_t>(d.wire_codec)];
    return d;
  }

  /// Size-adaptive bulk decision: probe the block codec's exact frame size
  /// (allocation-free) and ship the frame only when it shrinks the block.
  /// Degrade/cool-down semantics mirror the line path — a degraded link
  /// sends bulk raw too, and each bulk transfer advances the cool-down and
  /// the error-rate window exactly like a line transfer.
  [[nodiscard]] BlockDecision decide_block(const std::uint8_t* data,
                                           std::size_t size) override {
    BlockDecision d;
    d.payload_bits = static_cast<std::uint32_t>(size) * 8;
    ++stats_.bulk_transfers;
    if (degrade_remaining_ > 0) {
      --degrade_remaining_;
      ++stats_.degraded_transfers;
      if (degrade_remaining_ == 0) reset_to_sampling();
    } else {
      const std::size_t frame = BlockLzss::probe(data, size);
      d.compress_latency = BlockCodecCost::compress_cycles(size);
      d.compress_occupancy = d.compress_latency;
      d.compress_energy_pj = BlockCodecCost::kCompressPjPerByte * static_cast<double>(size);
      if (frame < size) {
        d.alg = BlockCodecId::kLzss;
        d.payload_bits = static_cast<std::uint32_t>(frame) * 8;
        d.decompress_latency = BlockCodecCost::decompress_cycles(size);
        d.decompress_occupancy = d.decompress_latency;
        d.decompress_energy_pj =
            BlockCodecCost::kDecompressPjPerByte * static_cast<double>(size);
      }
      note_window_transfer();
    }
    ++stats_.block_wire_counts[static_cast<std::size_t>(d.alg)];
    return d;
  }

  void on_link_feedback(LinkEvent ev) override {
    (void)ev;  // every event kind is equal evidence of a lossy link
    ++window_errors_;
  }

  [[nodiscard]] std::string_view name() const noexcept override { return "Adaptive"; }

  void set_payload_pool(PayloadPool* pool) override {
    pool_ = pool;
    scratch_.payload = pool_->acquire();
  }

  void set_tracer(Tracer* tracer, std::uint32_t track) override {
    tracer_ = tracer;
    track_ = track;
    if (tracer_ != nullptr) phase_start_ = tracer_->now();
  }

  void trace_flush() override {
    if (tracer_ == nullptr) return;
    const Tick now = tracer_->now();
    tracer_->span(track_, phase_name_, "policy", phase_start_, now);
    phase_start_ = now;  // idempotent: a second flush emits an empty span
  }

  /// Candidate currently locked in (meaningful during the running phase).
  [[nodiscard]] CodecId selected() const noexcept { return selected_; }

  [[nodiscard]] bool in_sampling_phase() const noexcept { return phase_ == Phase::kSampling; }

 private:
  enum class Phase : std::uint8_t { kSampling, kRunning };

  /// Closes the current phase span and opens `name`'s. Phase spans tile the
  /// timeline per GPU track, so one degrade event shows as exactly one
  /// "degraded" span in the exported trace.
  void switch_phase(const char* name) {
    if (phase_name_ == name) return;
    if (tracer_ != nullptr) {
      const Tick now = tracer_->now();
      tracer_->span(track_, phase_name_, "policy", phase_start_, now);
      phase_start_ = now;
    }
    phase_name_ = name;
  }

  /// Scores a candidate under the configured criterion; lower wins.
  [[nodiscard]] double score(std::uint32_t size_bits, CodecId id) const {
    const CodecCost cost = codec_cost(id);
    switch (params_.criterion) {
      case SelectionCriterion::kPenalty:
        return penalty_(size_bits, id);
      case SelectionCriterion::kEnergy:
        return static_cast<double>(size_bits) * fabric_pj_per_bit(params_.energy_tier) +
               cost.total_energy_pj();
      case SelectionCriterion::kEnergyDelayProduct: {
        const double energy =
            static_cast<double>(size_bits) * fabric_pj_per_bit(params_.energy_tier) +
            cost.total_energy_pj();
        const double delay =
            static_cast<double>(cost.compress_cycles + cost.decompress_cycles) +
            static_cast<double>(size_bits) / 8.0 / params_.fabric_bytes_per_cycle;
        return energy * delay;
      }
    }
    return penalty_(size_bits, id);
  }

  CompressionDecision decide_sampling(LineView line) {
    // Score every real compressor via its allocation-free probe; the best
    // candidate under the selection criterion gets this transfer's vote
    // and carries this transfer's data. Only that winner is fully encoded
    // (below) — the losers never materialize a payload.
    double best_penalty = score(kLineBits, CodecId::kNone);  // "send raw"
    CodecId best = CodecId::kNone;
    std::uint32_t best_bits = kLineBits;
    if (full_candidate_set_) {
      // All three compressors are candidates: one fused pass over the line
      // replaces three independent probes (identical results by contract).
      std::array<std::uint32_t, kNumCodecIds> all_bits;
      codecs_->probe_all(line, all_bits);
      for (std::size_t i = 1; i < kNumCodecIds; ++i) {
        const std::uint32_t bits = all_bits[i];
        const auto id = static_cast<CodecId>(i);
        const double p = score(bits, id);
        if (bits < kLineBits && p < best_penalty) {
          best_penalty = p;
          best = id;
          best_bits = bits;
        }
      }
    } else {
      for (const Codec* c : real_) {
        const std::uint32_t bits = c->probe(line);
        const double p = score(bits, c->id());
        if (bits < kLineBits && p < best_penalty) {
          best_penalty = p;
          best = c->id();
          best_bits = bits;
        }
      }
    }
    if (best != CodecId::kNone) {
      codecs_->get(best).compress_into(line, scratch_);
      MGCOMP_CHECK(scratch_.size_bits == best_bits);
    }

    ++votes_[static_cast<std::size_t>(best)];
    penalty_sums_[static_cast<std::size_t>(best)] += best_penalty;
    ++stats_.sampled_transfers;

    CompressionDecision d;
    d.sampled = true;
    d.wire_codec = best;
    d.payload_bits = best_bits;
    d.compress_latency = sample_latency_;   // all compressors ran concurrently
    d.compress_occupancy = sample_occupancy_;
    d.compress_energy_pj = sample_energy_pj_;
    if (best != CodecId::kNone) {
      const CodecCost cost = codec_cost(best);
      d.decompress_latency = cost.decompress_cycles;
      d.decompress_occupancy = cost.decompress_ii;
      d.decompress_energy_pj = cost.decompress_energy_pj();
    }

    if (++sample_count_ >= params_.sample_transfers) take_vote();
    return d;
  }

  void take_vote() {
    // Winner = most per-sample wins; ties break toward the lower
    // accumulated penalty, then the lower codec id.
    std::size_t winner = 0;
    for (std::size_t i = 1; i < kNumCodecIds; ++i) {
      if (votes_[i] > votes_[winner] ||
          (votes_[i] == votes_[winner] && penalty_sums_[i] < penalty_sums_[winner])) {
        winner = i;
      }
    }
    selected_ = static_cast<CodecId>(winner);
    ++stats_.votes_taken;
    ++stats_.vote_wins[winner];

    votes_.fill(0);
    penalty_sums_.fill(0.0);
    sample_count_ = 0;
    run_count_ = 0;
    phase_ = params_.running_transfers > 0 ? Phase::kRunning : Phase::kSampling;
    if (phase_ == Phase::kRunning) switch_phase(running_phase_name(selected_));
  }

  /// Counts one non-degraded transfer toward the error-rate window and
  /// trips the degrade cool-down when the window closes hot. Errors are
  /// reported asynchronously by the RDMA engine (on_link_feedback), so the
  /// rate is errors-per-outgoing-transfer over the last window.
  void note_window_transfer() {
    if (params_.degrade_cooldown_transfers == 0) return;
    if (++window_transfers_ < params_.degrade_window) return;
    const double rate =
        static_cast<double>(window_errors_) / static_cast<double>(window_transfers_);
    window_transfers_ = 0;
    window_errors_ = 0;
    if (tracer_ != nullptr) tracer_->counter(track_, "window_error_rate", rate);
    if (rate >= params_.degrade_error_threshold) {
      degrade_remaining_ = params_.degrade_cooldown_transfers;
      ++stats_.degrade_events;
      switch_phase("degraded");
    }
  }

  /// Re-probe after a degrade cool-down: discard the stale vote state and
  /// start a fresh sampling phase. The error window is cleared too —
  /// feedback for transfers issued before or during the cool-down must not
  /// count against the first post-degrade window, or a single burst of
  /// stale NACKs re-trips the degrade and the policy oscillates raw/probe
  /// without ever re-measuring the link.
  void reset_to_sampling() {
    phase_ = Phase::kSampling;
    selected_ = CodecId::kNone;
    sample_count_ = 0;
    run_count_ = 0;
    votes_.fill(0);
    penalty_sums_.fill(0.0);
    window_transfers_ = 0;
    window_errors_ = 0;
    switch_phase("sampling");
  }

  CompressionDecision decide_running(LineView line) {
    CompressionDecision d;
    if (selected_ == CodecId::kNone) {
      // Bypass: no compressor runs at all (saves latency *and* energy).
      d.wire_codec = CodecId::kNone;
      d.payload_bits = kLineBits;
    } else {
      codecs_->get(selected_).compress_into(line, scratch_);
      d = single_codec_decision(scratch_, selected_);
    }
    if (++run_count_ >= params_.running_transfers) {
      phase_ = Phase::kSampling;
      switch_phase("sampling");
    }
    return d;
  }

  const CodecSet* codecs_;
  AdaptiveParams params_;
  const PenaltyFunction penalty_;
  std::vector<const Codec*> real_;
  bool full_candidate_set_{false};
  Tick sample_latency_{0};
  Tick sample_occupancy_{0};
  double sample_energy_pj_{0.0};

  PayloadPool* pool_{nullptr};
  Compressed scratch_;

  Phase phase_{Phase::kSampling};
  CodecId selected_{CodecId::kNone};
  std::uint32_t sample_count_{0};
  std::uint32_t run_count_{0};
  std::array<std::uint32_t, kNumCodecIds> votes_{};
  std::array<double, kNumCodecIds> penalty_sums_{};

  // Degrade-to-raw state (reliability extension).
  std::uint32_t window_transfers_{0};
  std::uint32_t window_errors_{0};
  std::uint32_t degrade_remaining_{0};

  // Phase tracing (null when observability is off).
  Tracer* tracer_{nullptr};
  std::uint32_t track_{0};
  Tick phase_start_{0};
  const char* phase_name_{"sampling"};
};

}  // namespace

PolicyFactory make_no_compression_policy() {
  return [](const CodecSet&) { return std::make_unique<NoCompressionPolicy>(); };
}

PolicyFactory make_static_policy(CodecId codec) {
  return [codec](const CodecSet& set) { return std::make_unique<StaticPolicy>(set, codec); };
}

PolicyFactory make_adaptive_policy(AdaptiveParams params) {
  return
      [params](const CodecSet& set) { return std::make_unique<AdaptivePolicy>(set, params); };
}

}  // namespace mgcomp
