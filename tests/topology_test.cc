// Topology-aware collectives: the hierarchical all-reduce must be
// bit-exact against the flat-ring reference at every node grouping, win
// wall-clock on oversubscribed trunks, keep its schedule shape at large
// and awkward rank counts, and reject invalid groupings at construction.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collective/collective.h"
#include "collective/rank_space.h"
#include "core/system.h"

namespace mgcomp {
namespace {

/// A hierarchical system: `ranks` GPUs in nodes of `gpn` with 4:1
/// oversubscribed trunks (the paper-interesting regime).
SystemConfig hier_config(std::uint32_t ranks, std::uint32_t gpn,
                         HierGraph graph = HierGraph::kFatTree,
                         std::uint32_t ratio = 4) {
  SystemConfig cfg;
  cfg.num_gpus = ranks;
  cfg.fabric = FabricKind::kHier;
  cfg.hier.gpus_per_node = gpn;
  cfg.hier.internode_bw_ratio = ratio;
  cfg.hier.graph = graph;
  return cfg;
}

SystemConfig flat_config(std::uint32_t ranks) {
  SystemConfig cfg;
  cfg.num_gpus = ranks;
  cfg.fabric = FabricKind::kBus;
  return cfg;
}

CollectiveOutcome run_on(SystemConfig cfg, CollectiveConfig ccfg, PolicyFactory policy) {
  cfg.policy = std::move(policy);
  MultiGpuSystem sys(std::move(cfg));
  return run_collective(sys, ccfg);
}

// ---------------------------------------------------------------------------
// Bit-exactness: the hierarchical schedule reorders the (associative,
// commutative) reduction but must land on the flat ring's exact bits.

TEST(HierCollective, EightNodeAllReduceMatchesFlatDigest) {
  // The acceptance shape: 8 nodes x 4 GPUs, fat-tree trunks.
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  ccfg.fill = CollectiveFill::kRandom;
  const CollectiveOutcome flat =
      run_on(flat_config(32), ccfg, make_adaptive_policy(AdaptiveParams{}));
  const CollectiveOutcome hier =
      run_on(hier_config(32, 4), ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(flat.verified);
  ASSERT_TRUE(hier.verified);
  EXPECT_EQ(hier.data_digest, flat.data_digest);
  EXPECT_EQ(flat.run.collective.algo, "flat");
  EXPECT_EQ(hier.run.collective.algo, "hier");  // kAuto picked the hierarchy
  EXPECT_EQ(hier.run.collective.nodes, 8u);
  EXPECT_GT(hier.run.bus.trunk_wire_bytes, 0u);
  EXPECT_EQ(flat.run.bus.trunk_wire_bytes, 0u);
}

TEST(HierCollective, DigestIdentityAcrossGraphsGroupingsAndOps) {
  struct Case {
    std::uint32_t ranks;
    std::uint32_t gpn;
    HierGraph graph;
  };
  const Case cases[] = {
      {8, 4, HierGraph::kFatTree},  {8, 2, HierGraph::kTorus},
      {6, 3, HierGraph::kFatTree},  // non-power-of-two node grouping
      {12, 3, HierGraph::kTorus},   // 4 nodes on a 2x2 torus
      {64, 4, HierGraph::kFatTree},  // the kMaxGpus ceiling: 16 nodes
  };
  for (const Case& c : cases) {
    for (const ReduceOp op : {ReduceOp::kSum, ReduceOp::kMax}) {
      CollectiveConfig ccfg;
      ccfg.lines_per_rank = 2 * c.ranks + 5;  // ragged chunks on purpose
      ccfg.fill = CollectiveFill::kRandom;
      ccfg.op = op;
      const CollectiveOutcome flat =
          run_on(flat_config(c.ranks), ccfg, make_no_compression_policy());
      const CollectiveOutcome hier =
          run_on(hier_config(c.ranks, c.gpn, c.graph), ccfg, make_no_compression_policy());
      ASSERT_TRUE(flat.verified && hier.verified)
          << "ranks=" << c.ranks << " gpn=" << c.gpn;
      EXPECT_EQ(hier.data_digest, flat.data_digest)
          << "ranks=" << c.ranks << " gpn=" << c.gpn << " op=" << to_string(op);
      EXPECT_EQ(hier.run.collective.algo, "hier");
      EXPECT_EQ(hier.run.collective.nodes, c.ranks / c.gpn);
    }
  }
}

TEST(HierCollective, CompressionPoliciesAgreeOnHierFabric) {
  // Compression may only change timing, never bits — also through the
  // trunk-level block codec (full-page trunk pulls are the default).
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  ccfg.fill = CollectiveFill::kLowRange;
  const CollectiveOutcome raw =
      run_on(hier_config(8, 4), ccfg, make_no_compression_policy());
  const CollectiveOutcome ad =
      run_on(hier_config(8, 4), ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(raw.verified && ad.verified);
  EXPECT_EQ(raw.data_digest, ad.data_digest);
}

// ---------------------------------------------------------------------------
// The schedule exists to relieve oversubscribed trunks: against the flat
// ring on the same fabric it must move fewer trunk bytes and finish sooner.

TEST(HierCollective, BeatsFlatRingOnOversubscribedTrunks) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 128;
  ccfg.fill = CollectiveFill::kRandom;  // schedule-only comparison: no codec help
  ccfg.algo = CollectiveAlgo::kFlat;
  const CollectiveOutcome flat =
      run_on(hier_config(8, 4), ccfg, make_no_compression_policy());
  ccfg.algo = CollectiveAlgo::kHier;
  const CollectiveOutcome hier =
      run_on(hier_config(8, 4), ccfg, make_no_compression_policy());
  ASSERT_TRUE(flat.verified && hier.verified);
  EXPECT_EQ(hier.data_digest, flat.data_digest);
  EXPECT_LT(hier.run.bus.trunk_wire_bytes, flat.run.bus.trunk_wire_bytes);
  EXPECT_LT(hier.run.collective.duration, flat.run.collective.duration);
}

TEST(HierCollective, AdaptiveCompressionShortensTrunkTime) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 256;
  ccfg.fill = CollectiveFill::kLowRange;  // compressible gradient stand-in
  const CollectiveOutcome raw =
      run_on(hier_config(8, 4), ccfg, make_no_compression_policy());
  const CollectiveOutcome ad =
      run_on(hier_config(8, 4), ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(raw.verified && ad.verified);
  EXPECT_LT(ad.run.collective.duration, raw.run.collective.duration);
}

// ---------------------------------------------------------------------------
// Per-level policy split: the trunk phase pulls bulk blocks by default,
// the intra-node phases keep line granularity.

TEST(HierCollective, TrunkPhaseUsesBulkBlocksByDefault) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  const CollectiveOutcome out =
      run_on(hier_config(8, 4), ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(out.verified);
  EXPECT_EQ(out.run.collective.trunk_lines_per_block, kLinesPerPage);
  EXPECT_EQ(out.run.collective.lines_per_block, 1u);  // intra stays per-line
  EXPECT_GT(out.run.collective.block_transfers, 0u);  // trunk pulls were bulk
}

TEST(HierCollective, TrunkGranularityIsConfigurable) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 64;
  ccfg.trunk_lines_per_block = 1;  // line codecs on the trunks too
  const CollectiveOutcome out =
      run_on(hier_config(8, 4), ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(out.verified);
  EXPECT_EQ(out.run.collective.trunk_lines_per_block, 1u);
  EXPECT_EQ(out.run.collective.block_transfers, 0u);
}

// ---------------------------------------------------------------------------
// Determinism: the three-stage hierarchical schedule is pinned by a
// recorded golden, as the flat ring's is in collective_test.

TEST(HierCollective, GoldenFingerprint) {
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = 96;
  const CollectiveOutcome out =
      run_on(hier_config(8, 4), ccfg, make_adaptive_policy(AdaptiveParams{}));
  ASSERT_TRUE(out.verified);
  EXPECT_EQ(out.run.collective.algo, "hier");
  // Recorded golden for: all-reduce, 8 ranks in 2 nodes of 4 on 4:1
  // fat-tree trunks, 96 lines per rank, lowrange fill, adaptive policy,
  // 64-line trunk blocks. Update only with a justification in the commit
  // message.
  EXPECT_EQ(collective_fingerprint(out), 0x8dbaea4c5f207184ULL)
      << std::hex << collective_fingerprint(out);
}

// ---------------------------------------------------------------------------
// RankSpace and flat-ring shape at post-expansion rank counts (the
// [2,64] range, including primes and the ceiling).

TEST(TopologyRankSpace, OwnershipHoldsAtLargeRankCounts) {
  for (const std::uint32_t ranks : {17u, 32u, 64u}) {
    GlobalMemory mem;
    const AddressMap map(ranks, 8);
    const RankSpace space(mem, map, 2 * ranks);
    ASSERT_EQ(space.ranks(), ranks);
    for (std::uint32_t r = 0; r < ranks; ++r) {
      for (std::size_t l = 0; l < space.lines_per_rank(); ++l) {
        ASSERT_EQ(map.owner(space.line_addr(r, l)).value, r)
            << "rank " << r << " line " << l;
      }
    }
  }
}

TEST(TopologyRankSpace, FlatRingShapeHoldsAtLargeRankCounts) {
  for (const std::uint32_t ranks : {17u, 32u, 64u}) {
    CollectiveConfig ccfg;
    ccfg.lines_per_rank = 2 * ranks;  // two lines per chunk, never empty
    ccfg.algo = CollectiveAlgo::kFlat;
    const CollectiveOutcome out =
        run_on(flat_config(ranks), ccfg, make_no_compression_policy());
    const CollectiveStats& st = out.run.collective;
    ASSERT_TRUE(out.verified) << "ranks=" << ranks;
    EXPECT_EQ(st.ranks, ranks);
    EXPECT_EQ(st.steps, static_cast<std::uint64_t>(ranks) * 2 * (ranks - 1));
    EXPECT_EQ(st.line_transfers, 2ull * (ranks - 1) * ccfg.lines_per_rank);
    EXPECT_EQ(st.reduced_lines, st.line_transfers / 2);
  }
}

// ---------------------------------------------------------------------------
// Config plumbing: parsers and environment resolution.

TEST(TopologyConfig, ParseTopologyRoundTrips) {
  FabricKind kind{};
  HierGraph graph{};
  EXPECT_TRUE(parse_topology("bus", &kind, &graph));
  EXPECT_EQ(kind, FabricKind::kBus);
  EXPECT_TRUE(parse_topology("switch", &kind, &graph));
  EXPECT_EQ(kind, FabricKind::kSwitch);
  EXPECT_TRUE(parse_topology("hier", &kind, &graph));
  EXPECT_EQ(kind, FabricKind::kHier);
  EXPECT_EQ(graph, HierGraph::kFatTree);
  EXPECT_TRUE(parse_topology("hier-torus", &kind, &graph));
  EXPECT_EQ(graph, HierGraph::kTorus);
  EXPECT_FALSE(parse_topology("mesh", &kind, &graph));
}

TEST(TopologyConfig, ParseCollectiveAlgoRoundTrips) {
  for (const CollectiveAlgo a :
       {CollectiveAlgo::kAuto, CollectiveAlgo::kFlat, CollectiveAlgo::kHier}) {
    CollectiveAlgo parsed{};
    EXPECT_TRUE(parse_collective_algo(to_string(a), &parsed));
    EXPECT_EQ(parsed, a);
  }
  CollectiveAlgo a{};
  EXPECT_FALSE(parse_collective_algo("tree", &a));
}

/// setenv/unsetenv scope guard so env-resolution tests can't leak into the
/// rest of the binary.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_{false};
};

TEST(TopologyConfig, EnvironmentResolvesAutoFabric) {
  const ScopedEnv topo("MGCOMP_TOPOLOGY", "hier-torus");
  const ScopedEnv gpn("MGCOMP_GPUS_PER_NODE", "2");
  SystemConfig cfg;
  cfg.num_gpus = 8;
  const ResolvedTopology rt = cfg.resolved_topology();
  EXPECT_EQ(rt.fabric, FabricKind::kHier);
  EXPECT_EQ(rt.hier.graph, HierGraph::kTorus);
  EXPECT_EQ(rt.hier.gpus_per_node, 2u);
  EXPECT_EQ(rt.nodes(cfg.num_gpus), 4u);
}

TEST(TopologyConfig, ExplicitPinBeatsEnvironment) {
  const ScopedEnv topo("MGCOMP_TOPOLOGY", "hier");
  SystemConfig cfg;
  cfg.fabric = FabricKind::kBus;
  EXPECT_EQ(cfg.resolved_topology().fabric, FabricKind::kBus);
}

TEST(TopologyConfig, NonDividingEnvGroupingFallsBackToSingleNode) {
  const ScopedEnv topo("MGCOMP_TOPOLOGY", "hier");
  const ScopedEnv gpn("MGCOMP_GPUS_PER_NODE", "5");
  SystemConfig cfg;
  cfg.num_gpus = 8;  // 5 does not divide 8
  const ResolvedTopology rt = cfg.resolved_topology();
  EXPECT_EQ(rt.fabric, FabricKind::kHier);
  EXPECT_EQ(rt.hier.gpus_per_node, 8u);  // one node: still a valid system
}

// ---------------------------------------------------------------------------
// Invalid configurations die at construction, not mid-run.

TEST(TopologyDeathTest, RejectsNonDividingGrouping) {
  EXPECT_DEATH(
      {
        MultiGpuSystem sys(hier_config(8, 3));  // 3 does not divide 8
      },
      "gpus_per_node");
}

TEST(TopologyDeathTest, RejectsZeroGrouping) {
  EXPECT_DEATH(
      {
        MultiGpuSystem sys(hier_config(8, 0));
      },
      "gpus_per_node");
}

TEST(TopologyDeathTest, RejectsZeroTrunkRatio) {
  EXPECT_DEATH(
      {
        MultiGpuSystem sys(hier_config(8, 4, HierGraph::kFatTree, /*ratio=*/0));
      },
      "internode_bw_ratio");
}

TEST(TopologyDeathTest, RejectsEpisodesOnHierFabric) {
  EXPECT_DEATH(
      {
        SystemConfig cfg = hier_config(8, 4);
        cfg.episodes.push_back(FaultEpisode{});
        MultiGpuSystem sys(std::move(cfg));
      },
      "episode");
}

TEST(TopologyDeathTest, RejectsForcedHierAlgoWithoutGrouping) {
  EXPECT_DEATH(
      {
        // gpn == num_gpus: a single node has no trunk level to schedule.
        MultiGpuSystem sys(hier_config(4, 4));
        CollectiveConfig ccfg;
        ccfg.algo = CollectiveAlgo::kHier;
        run_collective(sys, ccfg);
      },
      "kHier");
}

}  // namespace
}  // namespace mgcomp
