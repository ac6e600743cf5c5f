// Unit tests for the penalty function (Eq. 1) and the compression
// policies, including the Section V adaptive state machine.
#include <gtest/gtest.h>

#include <limits>

#include "adaptive/penalty.h"
#include "adaptive/policy.h"
#include "common/rng.h"
#include "common/word_io.h"
#include "compression/codec_set.h"

namespace mgcomp {
namespace {

Line random_line(Rng& rng) {
  Line l;
  for (auto& b : l) b = static_cast<std::uint8_t>(rng.next());
  return l;
}

Line sparse_line(Rng& rng) {
  Line l{};
  for (std::size_t w = 0; w < 16; ++w) {
    if (rng.chance(0.2)) {
      store_le<std::uint32_t>(l, w * 4, static_cast<std::uint32_t>(rng.below(50)));
    }
  }
  return l;
}

/// A line BDI compresses (low dynamic range, wide values) but FPC cannot.
Line ldr_line(Rng& rng) {
  Line l{};
  const std::uint32_t base = 1u << 20;
  for (std::size_t w = 0; w < 16; ++w) {
    store_le<std::uint32_t>(l, w * 4, base + static_cast<std::uint32_t>(rng.below(100)));
  }
  return l;
}

// ---------------------------------------------------------------------------
// Penalty function.
// ---------------------------------------------------------------------------

TEST(Penalty, LambdaZeroIsPureSize) {
  const PenaltyFunction p(0.0);
  EXPECT_DOUBLE_EQ(p(140, CodecId::kBdi), 140.0);
  EXPECT_DOUBLE_EQ(p(140, CodecId::kCpackZ), 140.0);
  EXPECT_DOUBLE_EQ(p(kLineBits, CodecId::kNone), 512.0);
}

TEST(Penalty, LambdaWeightsLatency) {
  const PenaltyFunction p(6.0);
  // BDI: 2+1 = 3 cycles; C-Pack+Z: 16+9 = 25 cycles.
  EXPECT_DOUBLE_EQ(p(200, CodecId::kBdi), 200.0 + 6.0 * 3.0);
  EXPECT_DOUBLE_EQ(p(200, CodecId::kCpackZ), 200.0 + 6.0 * 25.0);
  // At equal size, the faster codec always wins for lambda > 0.
  EXPECT_LT(p(200, CodecId::kBdi), p(200, CodecId::kCpackZ));
}

TEST(Penalty, LargeLambdaFlipsWinner) {
  // C-Pack encodes smaller (100 vs 180 bits) but is 22 cycles slower
  // round-trip; lambda decides.
  const PenaltyFunction loose(0.0);
  EXPECT_LT(loose(100, CodecId::kCpackZ), loose(180, CodecId::kBdi));
  const PenaltyFunction tight(32.0);
  EXPECT_GT(tight(100, CodecId::kCpackZ), tight(180, CodecId::kBdi));
}

// ---------------------------------------------------------------------------
// No-compression and static policies.
// ---------------------------------------------------------------------------

TEST(NoCompressionPolicy, AlwaysRaw) {
  CodecSet set;
  auto policy = make_no_compression_policy()(set);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const CompressionDecision d = policy->decide(sparse_line(rng));
    EXPECT_EQ(d.wire_codec, CodecId::kNone);
    EXPECT_EQ(d.payload_bits, kLineBits);
    EXPECT_EQ(d.compress_latency, 0u);
    EXPECT_EQ(d.decompress_latency, 0u);
    EXPECT_DOUBLE_EQ(d.compress_energy_pj, 0.0);
  }
  EXPECT_EQ(policy->stats().wire_counts[static_cast<std::size_t>(CodecId::kNone)], 10u);
}

TEST(StaticPolicy, CompressesCompressibleLines) {
  CodecSet set;
  auto policy = make_static_policy(CodecId::kFpc)(set);
  Rng rng(2);
  const CompressionDecision d = policy->decide(sparse_line(rng));
  EXPECT_EQ(d.wire_codec, CodecId::kFpc);
  EXPECT_LT(d.payload_bits, kLineBits);
  EXPECT_EQ(d.compress_latency, codec_cost(CodecId::kFpc).compress_cycles);
  EXPECT_EQ(d.decompress_latency, codec_cost(CodecId::kFpc).decompress_cycles);
  EXPECT_GT(d.compress_energy_pj, 0.0);
  EXPECT_GT(d.decompress_energy_pj, 0.0);
}

TEST(StaticPolicy, SendsRawWhenCodecFails) {
  CodecSet set;
  auto policy = make_static_policy(CodecId::kFpc)(set);
  Rng rng(3);
  const CompressionDecision d = policy->decide(random_line(rng));
  // The compressor ran (paid latency + energy) but the wire sees raw data
  // and the receiver's decompressor is bypassed.
  EXPECT_EQ(d.wire_codec, CodecId::kNone);
  EXPECT_EQ(d.payload_bits, kLineBits);
  EXPECT_EQ(d.compress_latency, codec_cost(CodecId::kFpc).compress_cycles);
  EXPECT_GT(d.compress_energy_pj, 0.0);
  EXPECT_EQ(d.decompress_latency, 0u);
  EXPECT_DOUBLE_EQ(d.decompress_energy_pj, 0.0);
}

TEST(StaticPolicy, StatsSplitCompressedVsRaw) {
  CodecSet set;
  auto policy = make_static_policy(CodecId::kBdi)(set);
  Rng rng(4);
  for (int i = 0; i < 8; ++i) (void)policy->decide(ldr_line(rng));
  for (int i = 0; i < 4; ++i) (void)policy->decide(random_line(rng));
  EXPECT_EQ(policy->stats().wire_counts[static_cast<std::size_t>(CodecId::kBdi)], 8u);
  EXPECT_EQ(policy->stats().wire_counts[static_cast<std::size_t>(CodecId::kNone)], 4u);
  EXPECT_EQ(policy->stats().total_transfers(), 12u);
}

// ---------------------------------------------------------------------------
// Adaptive policy: Section V state machine.
// ---------------------------------------------------------------------------

TEST(AdaptivePolicy, SamplesExactlySampleTransfersThenVotes) {
  CodecSet set;
  AdaptiveParams params{.lambda = 6.0, .sample_transfers = 7, .running_transfers = 300};
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(5);
  for (int i = 0; i < 7; ++i) {
    const CompressionDecision d = policy->decide(sparse_line(rng));
    EXPECT_TRUE(d.sampled) << "transfer " << i << " should be in the sampling phase";
  }
  EXPECT_EQ(policy->stats().votes_taken, 1u);
  EXPECT_EQ(policy->stats().sampled_transfers, 7u);
  const CompressionDecision d = policy->decide(sparse_line(rng));
  EXPECT_FALSE(d.sampled);
}

TEST(AdaptivePolicy, RunsRunningTransfersThenResamples) {
  CodecSet set;
  AdaptiveParams params{.lambda = 6.0, .sample_transfers = 7, .running_transfers = 50};
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(6);
  for (int i = 0; i < 7 + 50; ++i) (void)policy->decide(sparse_line(rng));
  EXPECT_EQ(policy->stats().votes_taken, 1u);
  // Next transfer starts a new sampling phase.
  EXPECT_TRUE(policy->decide(sparse_line(rng)).sampled);
  for (int i = 0; i < 6; ++i) (void)policy->decide(sparse_line(rng));
  EXPECT_EQ(policy->stats().votes_taken, 2u);
}

TEST(AdaptivePolicy, SamplingChargesAllCompressors) {
  CodecSet set;
  auto policy = make_adaptive_policy(AdaptiveParams{})(set);
  Rng rng(7);
  const CompressionDecision d = policy->decide(sparse_line(rng));
  // Concurrent execution: latency is the slowest compressor (C-Pack, 16),
  // energy is the sum of all three compressors.
  EXPECT_EQ(d.compress_latency, codec_cost(CodecId::kCpackZ).compress_cycles);
  const double sum = codec_cost(CodecId::kFpc).compress_energy_pj() +
                     codec_cost(CodecId::kBdi).compress_energy_pj() +
                     codec_cost(CodecId::kCpackZ).compress_energy_pj();
  EXPECT_DOUBLE_EQ(d.compress_energy_pj, sum);
}

TEST(AdaptivePolicy, IncompressibleStreamSelectsBypass) {
  CodecSet set;
  AdaptiveParams params{.lambda = 6.0, .sample_transfers = 7, .running_transfers = 20};
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(8);
  for (int i = 0; i < 7; ++i) (void)policy->decide(random_line(rng));
  EXPECT_EQ(policy->stats().vote_wins[static_cast<std::size_t>(CodecId::kNone)], 1u);
  // Running phase: full bypass — no compressor runs at all.
  const CompressionDecision d = policy->decide(random_line(rng));
  EXPECT_EQ(d.wire_codec, CodecId::kNone);
  EXPECT_EQ(d.compress_latency, 0u);
  EXPECT_DOUBLE_EQ(d.compress_energy_pj, 0.0);
}

TEST(AdaptivePolicy, LambdaZeroPicksSmallestEncoding) {
  // With lambda = 0 the vote is decided purely by encoded size. Replicate
  // the selection logic offline (per-sample argmin, majority vote, ties
  // toward the lower cumulative penalty then the lower codec id) and
  // check the policy picked the same winner.
  CodecSet set;
  AdaptiveParams params{.lambda = 0.0, .sample_transfers = 7, .running_transfers = 10};
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(9);
  CodecSet probe;
  std::array<std::uint32_t, kNumCodecIds> votes{};
  std::array<double, kNumCodecIds> penalty_sum{};
  for (int i = 0; i < 7; ++i) {
    const Line l = sparse_line(rng);
    std::uint32_t best_bits = kLineBits;
    CodecId best = CodecId::kNone;
    for (const Codec* c : probe.real_codecs()) {
      const Compressed comp = c->compress(l);
      if (comp.is_compressed() && comp.size_bits < best_bits) {
        best_bits = comp.size_bits;
        best = c->id();
      }
    }
    ++votes[static_cast<std::size_t>(best)];
    penalty_sum[static_cast<std::size_t>(best)] += best_bits;
    (void)policy->decide(l);
  }
  std::size_t expected = 0;
  for (std::size_t i = 1; i < kNumCodecIds; ++i) {
    if (votes[i] > votes[expected] ||
        (votes[i] == votes[expected] && penalty_sum[i] < penalty_sum[expected])) {
      expected = i;
    }
  }
  EXPECT_EQ(policy->stats().vote_wins[expected], 1u);
}

TEST(AdaptivePolicy, LargeLambdaPrefersFastCodec) {
  // On LDR lines BDI is both valid and fastest; on sparse lines C-Pack is
  // smaller but much slower. With lambda = 32 the 22-cycle round-trip gap
  // costs 704 penalty points — more than any size advantage on these
  // lines — so BDI (or bypass) must win, never C-Pack.
  CodecSet set;
  AdaptiveParams params{.lambda = 32.0, .sample_transfers = 7, .running_transfers = 10};
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(10);
  for (int i = 0; i < 7; ++i) (void)policy->decide(ldr_line(rng));
  EXPECT_EQ(policy->stats().vote_wins[static_cast<std::size_t>(CodecId::kBdi)], 1u);
}

TEST(AdaptivePolicy, RunningPhaseFallsBackRawPerLine) {
  // Select BDI via LDR samples, then feed an incompressible line during
  // the running phase: it must go raw on the wire (header Comp Alg = 0)
  // while still paying BDI's compression attempt.
  CodecSet set;
  AdaptiveParams params{.lambda = 32.0, .sample_transfers = 7, .running_transfers = 100};
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(11);
  for (int i = 0; i < 7; ++i) (void)policy->decide(ldr_line(rng));
  const CompressionDecision d = policy->decide(random_line(rng));
  EXPECT_EQ(d.wire_codec, CodecId::kNone);
  EXPECT_EQ(d.payload_bits, kLineBits);
  EXPECT_EQ(d.compress_latency, codec_cost(CodecId::kBdi).compress_cycles);
}

TEST(AdaptivePolicy, MajorityVoteWins) {
  // 4 LDR samples (BDI wins each) vs 3 random samples (bypass wins): BDI
  // must carry the vote 4-3.
  CodecSet set;
  AdaptiveParams params{.lambda = 32.0, .sample_transfers = 7, .running_transfers = 10};
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(12);
  for (int i = 0; i < 4; ++i) (void)policy->decide(ldr_line(rng));
  for (int i = 0; i < 3; ++i) (void)policy->decide(random_line(rng));
  EXPECT_EQ(policy->stats().vote_wins[static_cast<std::size_t>(CodecId::kBdi)], 1u);
}

TEST(AdaptivePolicy, SingleCodecGatingTogglesOneCircuit) {
  // Section V, last paragraph: with one integrated compressor the scheme
  // degenerates to gating that circuit on and off.
  CodecSet set;
  AdaptiveParams params{.lambda = 6.0,
                        .sample_transfers = 7,
                        .running_transfers = 20,
                        .candidates = {CodecId::kBdi}};
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(20);

  // Sampling cost reflects only the BDI circuit.
  const CompressionDecision sample = policy->decide(ldr_line(rng));
  EXPECT_EQ(sample.compress_latency, codec_cost(CodecId::kBdi).compress_cycles);
  EXPECT_DOUBLE_EQ(sample.compress_energy_pj, codec_cost(CodecId::kBdi).compress_energy_pj());

  // BDI-friendly stream: circuit stays on.
  for (int i = 0; i < 6; ++i) (void)policy->decide(ldr_line(rng));
  EXPECT_EQ(policy->stats().vote_wins[static_cast<std::size_t>(CodecId::kBdi)], 1u);
  EXPECT_EQ(policy->decide(ldr_line(rng)).wire_codec, CodecId::kBdi);

  // Incompressible stream: next vote turns the circuit off entirely.
  for (int i = 0; i < 19; ++i) (void)policy->decide(random_line(rng));  // drain running
  for (int i = 0; i < 7; ++i) (void)policy->decide(random_line(rng));   // resample
  EXPECT_EQ(policy->stats().vote_wins[static_cast<std::size_t>(CodecId::kNone)], 1u);
  const CompressionDecision off = policy->decide(random_line(rng));
  EXPECT_EQ(off.compress_latency, 0u);
  EXPECT_DOUBLE_EQ(off.compress_energy_pj, 0.0);
}

TEST(AdaptivePolicy, PerLinkInstancesAreIndependent) {
  CodecSet set;
  const PolicyFactory factory = make_adaptive_policy(AdaptiveParams{});
  auto a = factory(set);
  auto b = factory(set);
  Rng rng(13);
  for (int i = 0; i < 20; ++i) (void)a->decide(sparse_line(rng));
  EXPECT_GT(a->stats().total_transfers(), 0u);
  EXPECT_EQ(b->stats().total_transfers(), 0u);
}

TEST(AdaptivePolicy, WireCodecMatchesPayloadSize) {
  // Property: whatever the policy chooses, a compressed wire codec implies
  // payload_bits < 512 and a real decompression charge; raw implies 512.
  CodecSet set;
  auto policy = make_adaptive_policy(AdaptiveParams{.lambda = 6.0})(set);
  Rng rng(14);
  for (int i = 0; i < 1000; ++i) {
    Line l;
    switch (i % 3) {
      case 0: l = sparse_line(rng); break;
      case 1: l = random_line(rng); break;
      default: l = ldr_line(rng); break;
    }
    const CompressionDecision d = policy->decide(l);
    if (d.wire_codec == CodecId::kNone) {
      EXPECT_EQ(d.payload_bits, kLineBits);
      EXPECT_EQ(d.decompress_latency, 0u);
    } else {
      EXPECT_LT(d.payload_bits, kLineBits);
      EXPECT_GT(d.decompress_latency, 0u);
    }
  }
}

TEST(AdaptivePolicy, SelectionCriteriaChooseDifferently) {
  // On sparse lines: Eq. (1) at lambda = 0 (pure size) favors the smallest
  // encoding (C-Pack+Z); kEnergy at the cheap on-chip tier is dominated by
  // codec energy, so BDI (1.4 pJ vs 40 pJ) wins whenever it compresses at
  // all.
  CodecSet set;
  Rng rng(22);
  std::vector<Line> lines;
  for (int i = 0; i < 7; ++i) lines.push_back(sparse_line(rng));

  AdaptiveParams size_params{.criterion = SelectionCriterion::kPenalty,
                             .lambda = 0.0,
                             .sample_transfers = 7,
                             .running_transfers = 10};
  auto size_policy = make_adaptive_policy(size_params)(set);
  for (const Line& l : lines) (void)size_policy->decide(l);
  EXPECT_GE(size_policy->stats().vote_wins[static_cast<std::size_t>(CodecId::kCpackZ)], 1u);

  AdaptiveParams energy_params{.criterion = SelectionCriterion::kEnergy,
                               .sample_transfers = 7,
                               .running_transfers = 10,
                               .energy_tier = FabricTier::kOnChip};
  auto energy_policy = make_adaptive_policy(energy_params)(set);
  for (const Line& l : lines) (void)energy_policy->decide(l);
  EXPECT_GE(energy_policy->stats().vote_wins[static_cast<std::size_t>(CodecId::kBdi)], 1u);
}

TEST(AdaptivePolicy, EnergyDelayProductBalancesBoth) {
  // EDP on LDR lines: BDI is both small and fast -> must win; and the
  // criterion is sane (never selects a codec when raw has lower EDP on
  // random lines).
  CodecSet set;
  AdaptiveParams params{.criterion = SelectionCriterion::kEnergyDelayProduct,
                        .sample_transfers = 7,
                        .running_transfers = 10};
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(23);
  for (int i = 0; i < 7; ++i) (void)policy->decide(ldr_line(rng));
  EXPECT_EQ(policy->stats().vote_wins[static_cast<std::size_t>(CodecId::kBdi)], 1u);
}

TEST(AdaptivePolicyDeathTest, NegativeOrNanLambdaIsRejected) {
  CodecSet set;
  for (const double lambda : {-5.0, std::numeric_limits<double>::quiet_NaN()}) {
    const PolicyFactory factory = make_adaptive_policy(AdaptiveParams{.lambda = lambda});
    EXPECT_DEATH((void)factory(set), "lambda must be a number >= 0");
  }
}

TEST(AdaptivePolicy, StaleWindowErrorsDoNotRetriggerDegradeAfterCooldown) {
  // Regression: link feedback is asynchronous, so NACKs/timeouts for
  // transfers issued before (or during) a degrade cool-down keep arriving
  // while the policy sends raw. reset_to_sampling() must clear the error
  // window, or the stale burst closes the first post-degrade window hot
  // and the policy re-degrades back-to-back without re-measuring the link.
  CodecSet set;
  AdaptiveParams params;
  params.degrade_window = 8;
  params.degrade_error_threshold = 0.25;
  params.degrade_cooldown_transfers = 16;
  auto policy = make_adaptive_policy(params)(set);
  Rng rng(7);

  // Window 1 closes with a 100% error rate: one genuine degrade.
  for (int i = 0; i < 8; ++i) {
    policy->on_link_feedback(LinkEvent::kTimeout);
    (void)policy->decide(sparse_line(rng));
  }
  ASSERT_EQ(policy->stats().degrade_events, 1u);

  // Cool-down: stale feedback keeps arriving for in-flight transfers. The
  // 16th degraded transfer ends the cool-down and resets to sampling.
  for (int i = 0; i < 16; ++i) {
    policy->on_link_feedback(LinkEvent::kNackReceived);
    (void)policy->decide(sparse_line(rng));
  }
  ASSERT_EQ(policy->stats().degraded_transfers, 16u);
  ASSERT_EQ(policy->stats().degrade_events, 1u);

  // The link is clean now; two full windows of error-free transfers must
  // not trip a second degrade off the stale errors.
  for (int i = 0; i < 16; ++i) (void)policy->decide(sparse_line(rng));
  EXPECT_EQ(policy->stats().degrade_events, 1u);
  EXPECT_EQ(policy->stats().degraded_transfers, 16u);
}

// Parameterized sweep: the adaptive policy must never *increase* total
// payload bits versus no compression, for any lambda.
class AdaptiveLambdaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AdaptiveLambdaSweep, NeverWorseThanRawOnPayloadBits) {
  CodecSet set;
  auto policy = make_adaptive_policy(AdaptiveParams{.lambda = GetParam()})(set);
  Rng rng(15);
  std::uint64_t total = 0;
  constexpr int kTransfers = 2000;
  for (int i = 0; i < kTransfers; ++i) {
    // Alternating compressible / incompressible stream.
    const Line l = (i / 100) % 2 == 0 ? sparse_line(rng) : random_line(rng);
    total += policy->decide(l).payload_bits;
  }
  EXPECT_LE(total, static_cast<std::uint64_t>(kTransfers) * kLineBits);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, AdaptiveLambdaSweep,
                         ::testing::Values(0.0, 1.0, 6.0, 16.0, 32.0, 128.0));

}  // namespace
}  // namespace mgcomp
