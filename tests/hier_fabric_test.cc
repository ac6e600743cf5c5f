// Hierarchical-fabric tests: intra-node crossbar behavior, store-and-
// forward trunk timing (fat-tree and torus), trunk-link serialization,
// oversubscription scaling, node grouping, trunk accounting and
// backpressure.
#include <gtest/gtest.h>

#include "core/system.h"
#include "fabric/hier_fabric.h"
#include "workloads/bitonic_sort.h"

namespace mgcomp {
namespace {

struct HierHarness {
  explicit HierHarness(HierTopology topo = HierTopology{})
      : fabric(engine, HierFabric::Params{.topo = topo}) {}

  Engine engine;
  HierFabric fabric;
  std::vector<Message> delivered;

  EndpointId add(const std::string& name, bool is_gpu = true) {
    return fabric.add_endpoint(name, is_gpu,
                               [this](Message&& m) { delivered.push_back(std::move(m)); });
  }

  /// Registers `n` GPU endpoints G0..G(n-1) and returns their ids.
  std::vector<EndpointId> add_gpus(std::uint32_t n) {
    std::vector<EndpointId> ids;
    ids.reserve(n);
    for (std::uint32_t g = 0; g < n; ++g) ids.push_back(add("G" + std::to_string(g)));
    return ids;
  }
};

Message make_msg(EndpointId src, EndpointId dst, MsgType type, std::uint32_t payload_bits = 0) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.payload_bits = payload_bits;
  return m;
}

// Default Params: 20 B/cycle intra, ratio 4 -> 5 B/cycle trunks, 4 GPUs
// per node. A 512-bit Data-Ready is 68 wire bytes: 4 intra cycles, 14
// trunk cycles.
constexpr std::uint32_t kPayloadBits = 512;
constexpr Tick kIntra = 4;
constexpr Tick kTrunk = 14;

TEST(HierFabric, NodeAssignmentFollowsRegistrationOrder) {
  HierHarness h;
  const auto g = h.add_gpus(8);
  const EndpointId cpu = h.add("CPU", /*is_gpu=*/false);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(h.fabric.node_of(g[i]), i / 4);
  EXPECT_EQ(h.fabric.node_of(cpu), 0u);  // non-GPU endpoints join node 0
  EXPECT_EQ(h.fabric.node_count(), 2u);
}

TEST(HierFabric, IntraNodeBehavesLikeCrossbar) {
  HierHarness h;
  const auto g = h.add_gpus(4);  // one node
  // Disjoint pairs transfer concurrently; no trunk is involved.
  h.fabric.send(make_msg(g[0], g[1], MsgType::kDataReady, kPayloadBits));
  h.fabric.send(make_msg(g[2], g[3], MsgType::kDataReady, kPayloadBits));
  h.engine.run();
  EXPECT_EQ(h.engine.now(), kIntra);
  EXPECT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.fabric.stats().trunk_messages, 0u);
}

TEST(HierFabric, FatTreeCrossNodeStoreAndForwardTiming) {
  HierHarness h;
  const auto g = h.add_gpus(8);  // 2 nodes
  // src out-port (4) + up-link (14) + down-link (14) + dst in-port (4).
  h.fabric.send(make_msg(g[0], g[4], MsgType::kDataReady, kPayloadBits));
  h.engine.run();
  EXPECT_EQ(h.engine.now(), kIntra + 2 * kTrunk + kIntra);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.fabric.stats().trunk_messages, 1u);
  EXPECT_EQ(h.fabric.stats().trunk_hops, 2u);
  EXPECT_EQ(h.fabric.stats().trunk_wire_bytes, h.delivered[0].wire_bytes());
}

TEST(HierFabric, SharedTrunkLinkSerializes) {
  HierHarness h;
  const auto g = h.add_gpus(8);
  // Different source/destination ports, but both cross node 0's single
  // up-link: the second transfer queues 14 cycles behind the first.
  h.fabric.send(make_msg(g[0], g[4], MsgType::kDataReady, kPayloadBits));
  h.fabric.send(make_msg(g[1], g[5], MsgType::kDataReady, kPayloadBits));
  h.engine.run();
  EXPECT_EQ(h.engine.now(), kIntra + 3 * kTrunk + kIntra);
  EXPECT_EQ(h.delivered.size(), 2u);
}

TEST(HierFabric, FullBandwidthTrunksMatchIntraRate) {
  HierHarness h(HierTopology{.gpus_per_node = 4, .internode_bw_ratio = 1});
  const auto g = h.add_gpus(8);
  h.fabric.send(make_msg(g[0], g[4], MsgType::kDataReady, kPayloadBits));
  h.engine.run();
  EXPECT_EQ(h.engine.now(), 4 * kIntra);  // every segment serializes at 20 B/cyc
}

TEST(HierFabric, TorusRoutesDimensionOrder) {
  HierHarness h(HierTopology{.gpus_per_node = 2, .internode_bw_ratio = 4,
                             .graph = HierGraph::kTorus});
  h.add_gpus(8);  // 4 nodes -> 2x2 grid
  EXPECT_EQ(h.fabric.trunk_hops(0, 0), 0u);
  EXPECT_EQ(h.fabric.trunk_hops(0, 1), 1u);  // one x step
  EXPECT_EQ(h.fabric.trunk_hops(0, 2), 1u);  // one y step
  EXPECT_EQ(h.fabric.trunk_hops(0, 3), 2u);  // x then y
}

TEST(HierFabric, TorusWrapsTheShortWay) {
  HierHarness h(HierTopology{.gpus_per_node = 2, .internode_bw_ratio = 4,
                             .graph = HierGraph::kTorus});
  h.add_gpus(16);  // 8 nodes -> 2x4 grid (rows=2, cols=4)
  EXPECT_EQ(h.fabric.trunk_hops(0, 3), 1u);  // x: 0 -> 3 wraps -x once
  EXPECT_EQ(h.fabric.trunk_hops(0, 2), 2u);  // x: two +x steps
  EXPECT_EQ(h.fabric.trunk_hops(0, 7), 2u);  // wrap -x, then +y
}

TEST(HierFabric, TorusCrossNodeTiming) {
  HierHarness h(HierTopology{.gpus_per_node = 2, .internode_bw_ratio = 4,
                             .graph = HierGraph::kTorus});
  const auto g = h.add_gpus(8);  // nodes {0,1},{2,3},{4,5},{6,7} on a 2x2 grid
  h.fabric.send(make_msg(g[0], g[2], MsgType::kDataReady, kPayloadBits));  // 1 hop
  h.engine.run();
  EXPECT_EQ(h.engine.now(), kIntra + kTrunk + kIntra);
  h.fabric.send(make_msg(g[1], g[7], MsgType::kDataReady, kPayloadBits));  // 2 hops
  const Tick start = h.engine.now();
  h.engine.run();
  EXPECT_EQ(h.engine.now() - start, kIntra + 2 * kTrunk + kIntra);
}

TEST(HierFabric, PerSourceFifoOrderAcrossNodes) {
  HierHarness h;
  const auto g = h.add_gpus(8);
  for (std::uint16_t i = 0; i < 10; ++i) {
    Message m = make_msg(g[0], g[4], MsgType::kReadReq);
    m.id = i;
    h.fabric.send(m);
  }
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 10u);
  for (std::uint16_t i = 0; i < 10; ++i) EXPECT_EQ(h.delivered[i].id, i);
}

TEST(HierFabric, InputBufferBackpressureAcrossNodes) {
  HierHarness h;
  const auto g = h.add_gpus(8);
  for (int i = 0; i < 61; ++i) {
    h.fabric.send(make_msg(g[0], g[4], MsgType::kDataReady, kPayloadBits));
  }
  h.engine.run();
  EXPECT_EQ(h.delivered.size(), 60u);  // 61st blocked on the 4 KB buffer
  h.fabric.consume(g[4], 68);
  h.engine.run();
  EXPECT_EQ(h.delivered.size(), 61u);
}

// ---------------------------------------------------------------------------
// End-to-end: the hierarchical fabric runs real workloads, and compression
// still pays on the oversubscribed trunks.
// ---------------------------------------------------------------------------

// The 16K-element sort spans 16 pages, which the stripe pattern spreads
// over the first few GPUs — nodes of 2 guarantee that span crosses a
// trunk without inflating the dataset.
TEST(HierFabric, SystemRunsRealWorkload) {
  BitonicSortWorkload wl(BitonicSortWorkload::Params{.n = 16384});
  SystemConfig cfg;
  cfg.num_gpus = 8;
  cfg.fabric = FabricKind::kHier;
  cfg.hier.gpus_per_node = 2;
  const RunResult r = run_workload(std::move(cfg), wl);
  EXPECT_GT(r.exec_ticks, 0u);
  EXPECT_GT(r.bus.trunk_messages, 0u);  // page interleaving crosses nodes
  EXPECT_GT(r.bus.trunk_wire_bytes, 0u);
}

TEST(HierFabric, CompressionStillHelpsOnTrunks) {
  auto run_with = [](PolicyFactory policy) {
    BitonicSortWorkload wl(BitonicSortWorkload::Params{.n = 16384});
    SystemConfig cfg;
    cfg.num_gpus = 8;
    cfg.fabric = FabricKind::kHier;
    cfg.hier.gpus_per_node = 2;
    cfg.policy = std::move(policy);
    return run_workload(std::move(cfg), wl);
  };
  const RunResult base = run_with(make_no_compression_policy());
  const RunResult ad = run_with(make_adaptive_policy(AdaptiveParams{.lambda = 6.0}));
  EXPECT_LT(ad.inter_gpu_traffic_bytes(), base.inter_gpu_traffic_bytes());
  EXPECT_LE(ad.exec_ticks, base.exec_ticks);
}

}  // namespace
}  // namespace mgcomp
