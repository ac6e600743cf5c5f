// Collective layer: correctness against the single-node reference,
// bit-identity across compression policies and fault injection,
// determinism, golden fingerprints per SIMD backend, the RankSpace
// placement contract, and fail-stop recovery (retry after flap, ring
// shrink past a dead GPU, structured failure verdicts).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collective/collective.h"
#include "collective/rank_space.h"
#include "compression/simd/dispatch.h"
#include "core/system.h"
#include "fault/episodes.h"

namespace mgcomp {
namespace {

constexpr std::uint32_t kRankCounts[] = {2, 3, 4, 8};
constexpr CollectiveKind kKinds[] = {CollectiveKind::kAllReduce, CollectiveKind::kAllGather,
                                     CollectiveKind::kReduceScatter,
                                     CollectiveKind::kBroadcast};

SystemConfig config_for(std::uint32_t ranks, PolicyFactory policy, double ber = 0.0) {
  SystemConfig cfg;
  cfg.num_gpus = ranks;
  cfg.policy = std::move(policy);
  cfg.fault.bit_error_rate = ber;
  return cfg;
}

CollectiveOutcome run_case(std::uint32_t ranks, const CollectiveConfig& ccfg,
                           PolicyFactory policy, double ber = 0.0) {
  MultiGpuSystem sys(config_for(ranks, std::move(policy), ber));
  return run_collective(sys, ccfg);
}

// ---------------------------------------------------------------------------
// Correctness: every op x rank count x fill reproduces the host reference.

TEST(CollectiveCorrectness, AllOpsAllRankCountsMatchReference) {
  for (const std::uint32_t ranks : kRankCounts) {
    for (const CollectiveKind kind : kKinds) {
      for (const CollectiveFill fill :
           {CollectiveFill::kZero, CollectiveFill::kLowRange, CollectiveFill::kRandom}) {
        CollectiveConfig ccfg;
        ccfg.kind = kind;
        ccfg.fill = fill;
        ccfg.lines_per_rank = 96;
        const CollectiveOutcome out =
            run_case(ranks, ccfg, make_adaptive_policy(AdaptiveParams{}));
        EXPECT_TRUE(out.verified) << to_string(kind) << " ranks=" << ranks << " fill="
                                  << to_string(fill);
      }
    }
  }
}

TEST(CollectiveCorrectness, MaxReduction) {
  for (const std::uint32_t ranks : {2u, 5u}) {
    CollectiveConfig ccfg;
    ccfg.op = ReduceOp::kMax;
    ccfg.fill = CollectiveFill::kRandom;
    ccfg.lines_per_rank = 64;
    const CollectiveOutcome out = run_case(ranks, ccfg, make_no_compression_policy());
    EXPECT_TRUE(out.verified) << "ranks=" << ranks;
  }
}

TEST(CollectiveCorrectness, BroadcastFromEveryRoot) {
  for (std::uint32_t root = 0; root < 4; ++root) {
    CollectiveConfig ccfg;
    ccfg.kind = CollectiveKind::kBroadcast;
    ccfg.root = root;
    ccfg.fill = CollectiveFill::kRamp;
    ccfg.lines_per_rank = 48;
    const CollectiveOutcome out = run_case(4, ccfg, make_adaptive_policy(AdaptiveParams{}));
    EXPECT_TRUE(out.verified) << "root=" << root;
  }
}

// Ragged tail (lines not divisible by ranks) and empty chunks (fewer lines
// than ranks) must still complete and verify.
TEST(CollectiveCorrectness, RaggedAndEmptyChunks) {
  for (const std::size_t lines : {1u, 3u, 7u, 100u}) {
    for (const CollectiveKind kind : kKinds) {
      CollectiveConfig ccfg;
      ccfg.kind = kind;
      ccfg.lines_per_rank = lines;
      const CollectiveOutcome out = run_case(8, ccfg, make_no_compression_policy());
      EXPECT_TRUE(out.verified) << to_string(kind) << " lines=" << lines;
    }
  }
}

TEST(CollectiveCorrectness, TinyWindowStillCompletes) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  ccfg.window = 1;
  const CollectiveOutcome out = run_case(4, ccfg, make_adaptive_policy(AdaptiveParams{}));
  EXPECT_TRUE(out.verified);
}

// ---------------------------------------------------------------------------
// Bit-identity: the wire representation must never change the math.

TEST(CollectiveIdentity, CompressionOnVsOffBitIdentical) {
  for (const std::uint32_t ranks : kRankCounts) {
    for (const CollectiveKind kind : kKinds) {
      CollectiveConfig ccfg;
      ccfg.kind = kind;
      ccfg.lines_per_rank = 80;
      const CollectiveOutcome raw = run_case(ranks, ccfg, make_no_compression_policy());
      const CollectiveOutcome bdi =
          run_case(ranks, ccfg, make_static_policy(CodecId::kBdi));
      const CollectiveOutcome ad =
          run_case(ranks, ccfg, make_adaptive_policy(AdaptiveParams{}));
      ASSERT_TRUE(raw.verified && bdi.verified && ad.verified)
          << to_string(kind) << " ranks=" << ranks;
      EXPECT_EQ(raw.data_digest, bdi.data_digest) << to_string(kind) << " ranks=" << ranks;
      EXPECT_EQ(raw.data_digest, ad.data_digest) << to_string(kind) << " ranks=" << ranks;
    }
  }
}

TEST(CollectiveIdentity, FaultInjectionPreservesResult) {
  for (const std::uint32_t ranks : kRankCounts) {
    CollectiveConfig ccfg;
    ccfg.lines_per_rank = 256;
    const CollectiveOutcome clean =
        run_case(ranks, ccfg, make_adaptive_policy(AdaptiveParams{}));
    const CollectiveOutcome faulty =
        run_case(ranks, ccfg, make_adaptive_policy(AdaptiveParams{}), /*ber=*/1e-6);
    ASSERT_TRUE(clean.verified) << "ranks=" << ranks;
    EXPECT_TRUE(faulty.verified) << "ranks=" << ranks;
    EXPECT_EQ(clean.data_digest, faulty.data_digest) << "ranks=" << ranks;
  }
}

TEST(CollectiveIdentity, DeterministicAcrossRuns) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 128;
  const CollectiveOutcome a = run_case(4, ccfg, make_adaptive_policy(AdaptiveParams{}));
  const CollectiveOutcome b = run_case(4, ccfg, make_adaptive_policy(AdaptiveParams{}));
  EXPECT_EQ(collective_fingerprint(a), collective_fingerprint(b));
  EXPECT_EQ(a.run.exec_ticks, b.run.exec_ticks);
  EXPECT_EQ(a.run.bus.busy_cycles, b.run.bus.busy_cycles);
}

// ---------------------------------------------------------------------------
// The effect the layer exists to measure: compression frees fabric cycles
// on compressible traffic and costs (almost) nothing on incompressible.

TEST(CollectiveEffect, AdaptiveBeatsRawOnCompressibleAllReduce) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 256;
  ccfg.fill = CollectiveFill::kLowRange;
  const CollectiveOutcome raw = run_case(4, ccfg, make_no_compression_policy());
  const CollectiveOutcome ad = run_case(4, ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(raw.verified && ad.verified);
  EXPECT_LT(ad.run.bus.busy_cycles, raw.run.bus.busy_cycles);
  EXPECT_LT(ad.run.collective.duration, raw.run.collective.duration);
  EXPECT_LT(ad.run.bus.inter_gpu_payload_wire_bits,
            raw.run.bus.inter_gpu_payload_wire_bits);
  EXPECT_GT(ad.run.collective.alg_bytes_per_cycle(),
            raw.run.collective.alg_bytes_per_cycle());
}

TEST(CollectiveEffect, AdaptiveFallsBackOnRandomData) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 256;
  ccfg.fill = CollectiveFill::kRandom;
  const CollectiveOutcome raw = run_case(4, ccfg, make_no_compression_policy());
  const CollectiveOutcome ad = run_case(4, ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(raw.verified && ad.verified);
  // Incompressible payloads go out raw (plus negligible probe overhead).
  EXPECT_LE(ad.run.bus.inter_gpu_payload_wire_bits,
            raw.run.bus.inter_gpu_payload_wire_bits * 105 / 100);
}

// ---------------------------------------------------------------------------
// Counters.

TEST(CollectiveStatsTest, RingScheduleShape) {
  for (const std::uint32_t ranks : kRankCounts) {
    CollectiveConfig ccfg;
    ccfg.lines_per_rank = 64;  // divisible by every tested rank count
    // This asserts the *flat* ring's exact shape, so pin the algo: under a
    // CI topology sweep (MGCOMP_TOPOLOGY=hier) kAuto would pick the
    // hierarchical schedule at rank counts the node size divides.
    ccfg.algo = CollectiveAlgo::kFlat;
    const CollectiveOutcome out = run_case(ranks, ccfg, make_no_compression_policy());
    const CollectiveStats& st = out.run.collective;
    ASSERT_TRUE(out.verified);
    EXPECT_EQ(st.ranks, ranks);
    EXPECT_EQ(st.op, "allreduce");
    // All-reduce: 2(n-1) hops per chunk, n chunks; every line of every hop
    // crosses the wire once; the reduce phase is half the hops.
    EXPECT_EQ(st.steps, static_cast<std::uint64_t>(ranks) * 2 * (ranks - 1));
    EXPECT_EQ(st.line_transfers, 2ull * (ranks - 1) * ccfg.lines_per_rank);
    EXPECT_EQ(st.reduced_lines, st.line_transfers / 2);
    EXPECT_EQ(st.payload_bytes, st.line_transfers * kLineBytes);
    EXPECT_EQ(st.bytes_per_rank, ccfg.lines_per_rank * kLineBytes);
    EXPECT_GT(st.duration, 0u);
    EXPECT_DOUBLE_EQ(st.bus_factor, 2.0 * (ranks - 1.0) / ranks);
    EXPECT_GT(st.alg_bytes_per_cycle(), 0.0);
  }
}

TEST(CollectiveStatsTest, BusFactors) {
  EXPECT_DOUBLE_EQ(collective_bus_factor(CollectiveKind::kAllReduce, 4), 1.5);
  EXPECT_DOUBLE_EQ(collective_bus_factor(CollectiveKind::kAllGather, 4), 0.75);
  EXPECT_DOUBLE_EQ(collective_bus_factor(CollectiveKind::kReduceScatter, 4), 0.75);
  EXPECT_DOUBLE_EQ(collective_bus_factor(CollectiveKind::kBroadcast, 4), 1.0);
}

TEST(CollectiveStatsTest, ParseRoundTrips) {
  for (const CollectiveKind k : kKinds) {
    CollectiveKind parsed{};
    EXPECT_TRUE(parse_collective_kind(to_string(k), &parsed));
    EXPECT_EQ(parsed, k);
  }
  CollectiveKind k{};
  EXPECT_FALSE(parse_collective_kind("alltoall", &k));
  for (const CollectiveFill f : {CollectiveFill::kZero, CollectiveFill::kLowRange,
                                 CollectiveFill::kRamp, CollectiveFill::kRandom}) {
    CollectiveFill parsed{};
    EXPECT_TRUE(parse_collective_fill(to_string(f), &parsed));
    EXPECT_EQ(parsed, f);
  }
}

// ---------------------------------------------------------------------------
// RankSpace: the placement contract the pull-based schedule relies on.

TEST(RankSpaceTest, EveryLineOwnedByItsRank) {
  for (const std::uint32_t ranks : kRankCounts) {
    GlobalMemory mem;
    const AddressMap map(ranks, 8);
    const RankSpace space(mem, map, 100);
    ASSERT_EQ(space.ranks(), ranks);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      for (std::size_t l = 0; l < space.lines_per_rank(); ++l) {
        const Addr a = space.line_addr(r, l);
        ASSERT_EQ(map.owner(a).value, r) << "rank " << r << " line " << l;
        ASSERT_EQ(a, line_base(a));
      }
    }
  }
}

TEST(RankSpaceTest, LinesAreDistinct) {
  GlobalMemory mem;
  const AddressMap map(4, 8);
  const RankSpace space(mem, map, 200);
  std::vector<Addr> addrs;
  for (std::uint32_t r = 0; r < 4; ++r) {
    for (std::size_t l = 0; l < 200; ++l) addrs.push_back(space.line_addr(r, l));
  }
  std::sort(addrs.begin(), addrs.end());
  EXPECT_EQ(std::adjacent_find(addrs.begin(), addrs.end()), addrs.end());
}

// ---------------------------------------------------------------------------
// Configurable system size: the full [2,64] range builds and runs; out-of-
// range configs are rejected at construction.

TEST(SystemSizeTest, SixteenGpuCollective) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 32;  // 16 ranks -> 2-line chunks
  const CollectiveOutcome out = run_case(16, ccfg, make_adaptive_policy(AdaptiveParams{}));
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.run.collective.ranks, 16u);
}

TEST(SystemSizeDeathTest, RejectsOutOfRangeGpuCount) {
  EXPECT_DEATH(
      {
        SystemConfig one;
        one.num_gpus = 1;
        MultiGpuSystem sys(std::move(one));
      },
      "num_gpus");
  EXPECT_DEATH(
      {
        SystemConfig many;
        many.num_gpus = 65;
        MultiGpuSystem sys(std::move(many));
      },
      "num_gpus");
}

// ---------------------------------------------------------------------------
// Fail-stop recovery: scheduled episodes against the collective layer. All
// runs are deterministic (episodes are fixed ticks, detection budgets are
// fixed), so exact verdicts can be asserted.

/// A system with fail-stop episodes and detection budgets small enough that
/// abort/recover cycles play out within a short collective run.
SystemConfig chaos_config(std::uint32_t ranks, const char* spec, FabricKind fabric) {
  SystemConfig cfg;
  cfg.num_gpus = ranks;
  cfg.fabric = fabric;
  cfg.policy = make_adaptive_policy(AdaptiveParams{});
  std::string err;
  EXPECT_TRUE(parse_fault_episodes(spec, &cfg.episodes, &err)) << err;
  cfg.retry.timeout = 512;
  cfg.retry.timeout_cap = 4096;
  cfg.retry.max_retries = 3;
  cfg.health.down_after = 2;
  cfg.health.up_after = 2;
  cfg.health.probe_interval = 2048;
  cfg.health.probe_budget = 32;
  cfg.health.heartbeat_interval = 1024;
  cfg.health.heartbeat_misses = 2;
  return cfg;
}

TEST(CollectiveRecovery, FlapAbortsThenRetriesToTheReferenceDigest) {
  // The acceptance path for link flaps: pulls crossing the flapping wire
  // exhaust their retry budget, the attempt aborts with a structured error,
  // the drain waits out the flap windows until the link is believed
  // RECOVERED, and a full-ring retry from refilled inputs reproduces the
  // clean run's digest bit-exactly.
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  const CollectiveOutcome clean = run_case(4, ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(clean.verified);
  ASSERT_EQ(clean.status, CollectiveStatus::kCompleted);
  ASSERT_EQ(clean.attempts, 1u);

  ccfg.max_attempts = 6;
  MultiGpuSystem sys(chaos_config(4, "flap:0-1@256+12288x2/12544", FabricKind::kBus));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.status, CollectiveStatus::kDegraded);
  EXPECT_GE(out.attempts, 2u);  // at least one attempt died to the flap
  EXPECT_TRUE(out.verified);
  EXPECT_FALSE(out.partial);  // recovered on the full ring, nothing shrunk
  EXPECT_EQ(out.surviving_ranks.size(), 4u);
  EXPECT_NE(out.error.kind, CollectiveErrorKind::kNone);
  EXPECT_EQ(out.data_digest, clean.data_digest);
  EXPECT_GT(out.run.health.link_down, 0u);
}

TEST(CollectiveRecovery, SwitchRouteAroundMasksASingleDeadLink) {
  // On the switch fabric a single dead wire is survivable without aborting:
  // once the health monitor believes the link DOWN, traffic re-routes via
  // an intermediate endpoint and the first attempt completes.
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  SystemConfig clean_cfg;
  clean_cfg.num_gpus = 4;
  clean_cfg.fabric = FabricKind::kSwitch;
  clean_cfg.policy = make_adaptive_policy(AdaptiveParams{});
  MultiGpuSystem clean_sys(std::move(clean_cfg));
  const CollectiveOutcome clean = run_collective(clean_sys, ccfg);
  ASSERT_TRUE(clean.verified);

  SystemConfig cfg = chaos_config(4, "down:0-1@0+100000000", FabricKind::kSwitch);
  cfg.retry.timeout_cap = 1u << 15;
  cfg.retry.max_retries = 6;  // enough slack to outlive detection + reroute
  MultiGpuSystem sys(std::move(cfg));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.status, CollectiveStatus::kCompleted);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_TRUE(out.verified);
  EXPECT_FALSE(out.partial);
  EXPECT_GT(out.run.bus.rerouted_messages, 0u);
  // Routing detours cost time, never math: the digest still matches.
  EXPECT_EQ(out.data_digest, clean.data_digest);
}

/// Eight ranks in two nodes of four on 4:1 fat-tree trunks, with the
/// chaos detection budgets.
SystemConfig hier_chaos_config(const char* spec) {
  SystemConfig cfg = chaos_config(8, spec, FabricKind::kHier);
  cfg.hier.gpus_per_node = 4;
  cfg.hier.internode_bw_ratio = 4;
  cfg.hier.graph = HierGraph::kFatTree;
  return cfg;
}

TEST(CollectiveRecovery, HierRouteAroundMasksADeadCrossNodeLink) {
  // GPU3-GPU4 is a ring hop that crosses the trunks. Once it is believed
  // DOWN, the flat schedule's traffic on it detours through another
  // endpoint and the first attempt completes.
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  ccfg.algo = CollectiveAlgo::kFlat;
  const CollectiveOutcome clean = run_case(8, ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(clean.verified);

  SystemConfig cfg = hier_chaos_config("down:3-4@0+100000000");
  cfg.retry.timeout_cap = 1u << 15;
  cfg.retry.max_retries = 6;  // enough slack to outlive detection + reroute
  MultiGpuSystem sys(std::move(cfg));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.status, CollectiveStatus::kCompleted);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_TRUE(out.verified);
  EXPECT_FALSE(out.partial);
  EXPECT_GT(out.run.bus.rerouted_messages, 0u);
  EXPECT_GT(out.run.bus.trunk_messages, 0u);
  EXPECT_EQ(out.data_digest, clean.data_digest);
}

TEST(CollectiveRecovery, HierScheduleRoutesAroundAFlapInsideANode) {
  // GPU0-GPU1 carries the hierarchical schedule's first (intra-node)
  // stage. While the flap holds it DOWN, that traffic detours through
  // another endpoint of the node and the first attempt still completes.
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  ccfg.max_attempts = 6;
  const CollectiveOutcome clean = run_case(8, ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(clean.verified);

  MultiGpuSystem sys(hier_chaos_config("flap:0-1@100+12288x2/12544"));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.run.collective.algo, "hier");
  EXPECT_EQ(out.status, CollectiveStatus::kCompleted);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.data_digest, clean.data_digest);
  EXPECT_GT(out.run.health.link_down, 0u);
  EXPECT_GT(out.run.bus.rerouted_messages, 0u);
}

TEST(CollectiveRecovery, HierStageBarrierWaitsOutACrossNodeFlap) {
  // Each stage barrier drains the whole event queue, episode events
  // included, so the cross-node stage starts only after the flap's last
  // window (ending at tick 25088) has closed. The run pays the wait but
  // never meets the flap.
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  const CollectiveOutcome clean = run_case(8, ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(clean.verified);

  MultiGpuSystem sys(hier_chaos_config("flap:1-6@256+12288x2/12544"));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.run.collective.algo, "hier");
  EXPECT_EQ(out.status, CollectiveStatus::kCompleted);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.data_digest, clean.data_digest);
  EXPECT_GT(out.run.collective.duration, 25088u);
  EXPECT_EQ(out.run.health.transitions(), 0u);
}

TEST(CollectiveRecovery, HierGpuFailStopShrinksToSurvivors) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 56;  // divides evenly across the 7 survivors
  ccfg.allow_shrink = true;
  ccfg.algo = CollectiveAlgo::kFlat;
  MultiGpuSystem sys(hier_chaos_config("gpufail:5@100"));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.status, CollectiveStatus::kDegraded);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.partial);
  EXPECT_EQ(out.surviving_ranks, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 6, 7}));
  EXPECT_GT(out.run.health.gpu_down, 0u);
}

TEST(CollectiveRecovery, GpuFailStopShrinksRingToSurvivors) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 48;  // divides evenly across the 3 survivors
  ccfg.allow_shrink = true;
  MultiGpuSystem sys(chaos_config(4, "gpufail:3@100", FabricKind::kBus));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.status, CollectiveStatus::kDegraded);
  EXPECT_TRUE(out.verified);  // verified against the survivors' reference
  EXPECT_TRUE(out.partial);
  EXPECT_GE(out.attempts, 2u);
  ASSERT_EQ(out.surviving_ranks.size(), 3u);
  EXPECT_EQ(out.surviving_ranks, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_GT(out.run.health.gpu_down, 0u);
}

TEST(CollectiveRecovery, GpuFailStopWithoutShrinkFailsWithTheAbortError) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 48;  // allow_shrink stays false
  MultiGpuSystem sys(chaos_config(4, "gpufail:3@100", FabricKind::kBus));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.status, CollectiveStatus::kFailed);
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.attempts, 1u);  // a full-ring retry can never complete
  EXPECT_TRUE(out.error.kind == CollectiveErrorKind::kPeerDown ||
              out.error.kind == CollectiveErrorKind::kPullFailed)
      << to_string(out.error.kind);
}

TEST(CollectiveRecovery, ShrinkBelowMinGpusIsRejected) {
  // Two ranks, one fail-stops: the "ring" of survivors would be a single
  // GPU, which is below kMinGpus — shrink is refused even when allowed.
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 32;
  ccfg.allow_shrink = true;
  MultiGpuSystem sys(chaos_config(2, "gpufail:1@100", FabricKind::kBus));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.status, CollectiveStatus::kFailed);
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.error.kind, CollectiveErrorKind::kShrinkRejected);
}

TEST(CollectiveRecovery, BroadcastRootDeathCannotShrinkAround) {
  // The broadcast root holds the only defined input; when its GPU dies no
  // subset of survivors can produce the result, shrink or not.
  CollectiveConfig ccfg;
  ccfg.kind = CollectiveKind::kBroadcast;
  ccfg.root = 0;
  ccfg.lines_per_rank = 48;
  ccfg.allow_shrink = true;
  MultiGpuSystem sys(chaos_config(4, "gpufail:0@100", FabricKind::kBus));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.status, CollectiveStatus::kFailed);
  EXPECT_FALSE(out.verified);
  EXPECT_NE(out.error.kind, CollectiveErrorKind::kNone);
}

TEST(CollectiveRecovery, PermanentLinkLossOnTheBusExhaustsRetries) {
  // The bus has no alternate path; with the wire dead for the whole run
  // every full-ring attempt aborts until the budget runs out, and the
  // verdict names the exhaustion rather than the last symptom.
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 32;
  ccfg.max_attempts = 2;
  MultiGpuSystem sys(chaos_config(4, "down:0-1@0+10000000", FabricKind::kBus));
  const CollectiveOutcome out = run_collective(sys, ccfg);
  EXPECT_EQ(out.status, CollectiveStatus::kFailed);
  EXPECT_FALSE(out.verified);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.error.kind, CollectiveErrorKind::kRetriesExhausted);
}

// ---------------------------------------------------------------------------
// Golden fingerprints, replayed on every available SIMD backend. Collective
// results are part of the bit-identity contract: backend selection (and
// nothing else) may change only simulator throughput. Any legitimate
// behavior-changing commit must re-record these values and say so.

struct CollectiveGolden {
  CollectiveKind kind;
  std::uint32_t ranks;
  std::uint64_t fingerprint;
};

constexpr CollectiveGolden kCollectiveGoldens[] = {
    {CollectiveKind::kAllReduce, 2, 0xef5e9f3afdf402e2ULL},
    {CollectiveKind::kAllReduce, 4, 0xd19dc508c17efd3dULL},
    {CollectiveKind::kAllReduce, 8, 0xbd52a051f0ec82d4ULL},
    {CollectiveKind::kAllGather, 4, 0x82cbf9e832324d70ULL},
    {CollectiveKind::kReduceScatter, 4, 0x53a27b59ee7cdd30ULL},
    {CollectiveKind::kBroadcast, 4, 0x7d4c690c2cf9a3d0ULL},
};

class CollectiveGoldenTest : public ::testing::TestWithParam<simd::Backend> {};

TEST_P(CollectiveGoldenTest, FingerprintsPinned) {
  const simd::Backend prev = simd::active_backend();
  ASSERT_TRUE(simd::set_backend(simd::backend_name(GetParam())));
  for (const CollectiveGolden& g : kCollectiveGoldens) {
    CollectiveConfig ccfg;
    ccfg.kind = g.kind;
    ccfg.lines_per_rank = 100;  // ragged for 3 and 8 ranks
    // Fingerprints encode bus-fabric timing: pin it so a CI topology sweep
    // (MGCOMP_TOPOLOGY=...) can't re-route the goldens onto another fabric.
    SystemConfig cfg = config_for(g.ranks, make_adaptive_policy(AdaptiveParams{}));
    cfg.fabric = FabricKind::kBus;
    MultiGpuSystem sys(std::move(cfg));
    const CollectiveOutcome out = run_collective(sys, ccfg);
    ASSERT_TRUE(out.verified);
    EXPECT_EQ(collective_fingerprint(out), g.fingerprint)
        << to_string(g.kind) << " ranks=" << g.ranks << " backend="
        << simd::backend_name(GetParam()) << " actual=0x" << std::hex
        << collective_fingerprint(out);
  }
  simd::set_backend(simd::backend_name(prev));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CollectiveGoldenTest,
                         ::testing::ValuesIn(simd::available_backends()),
                         [](const ::testing::TestParamInfo<simd::Backend>& info) {
                           return std::string(simd::backend_name(info.param));
                         });

}  // namespace
}  // namespace mgcomp
