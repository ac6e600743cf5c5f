// Switched-fabric tests: concurrency, per-port serialization, FIFO order,
// backpressure, and end-to-end system equivalence with the bus. The switch
// is the port-based HierFabric with every GPU on one node.
#include <gtest/gtest.h>

#include "core/system.h"
#include "fabric/hier_fabric.h"
#include "workloads/bitonic_sort.h"

namespace mgcomp {
namespace {

struct SwitchHarness {
  Engine engine;
  HierFabric fabric{engine, HierFabric::Params{.topo = {.gpus_per_node = kMaxGpus}}};
  std::vector<Message> delivered;

  EndpointId add(const std::string& name, bool is_gpu = true) {
    return fabric.add_endpoint(name, is_gpu,
                               [this](Message&& m) { delivered.push_back(std::move(m)); });
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

TEST(SwitchFabric, DisjointPairsTransferConcurrently) {
  SwitchHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  const EndpointId c = h.add("C");
  const EndpointId d = h.add("D");
  // Two 4-cycle transfers on disjoint port pairs complete in 4 cycles
  // total (a bus would need 8).
  h.fabric.send(make_msg(a, b, MsgType::kDataReady, 512));
  h.fabric.send(make_msg(c, d, MsgType::kDataReady, 512));
  h.engine.run();
  EXPECT_EQ(h.engine.now(), 4u);
  EXPECT_EQ(h.delivered.size(), 2u);
}

TEST(SwitchFabric, SharedOutputPortSerializes) {
  SwitchHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  const EndpointId c = h.add("C");
  h.fabric.send(make_msg(a, b, MsgType::kDataReady, 512));
  h.fabric.send(make_msg(a, c, MsgType::kDataReady, 512));
  h.engine.run();
  EXPECT_EQ(h.engine.now(), 8u);  // same source port: serialized
}

TEST(SwitchFabric, SharedInputPortSerializes) {
  SwitchHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  const EndpointId c = h.add("C");
  h.fabric.send(make_msg(a, c, MsgType::kDataReady, 512));
  h.fabric.send(make_msg(b, c, MsgType::kDataReady, 512));
  h.engine.run();
  EXPECT_EQ(h.engine.now(), 8u);  // same destination port: serialized
}

TEST(SwitchFabric, PerSourceFifoOrder) {
  SwitchHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  for (std::uint16_t i = 0; i < 10; ++i) {
    Message m = make_msg(a, b, MsgType::kReadReq);
    m.id = i;
    h.fabric.send(m);
  }
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 10u);
  for (std::uint16_t i = 0; i < 10; ++i) EXPECT_EQ(h.delivered[i].id, i);
}

TEST(SwitchFabric, InputBufferBackpressure) {
  SwitchHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  for (int i = 0; i < 61; ++i) h.fabric.send(make_msg(a, b, MsgType::kDataReady, 512));
  h.engine.run();
  EXPECT_EQ(h.delivered.size(), 60u);  // 61st blocked on the 4 KB buffer
  h.fabric.consume(b, 68);
  h.engine.run();
  EXPECT_EQ(h.delivered.size(), 61u);
}

TEST(SwitchFabric, HeadOfLineBlockingIsPerSource) {
  SwitchHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  const EndpointId c = h.add("C");
  const EndpointId d = h.add("D");
  // Fill C's input buffer from A, then queue A->C (blocked). B->D must
  // still flow.
  for (int i = 0; i < 60; ++i) h.fabric.send(make_msg(a, c, MsgType::kDataReady, 512));
  h.engine.run();
  h.fabric.send(make_msg(a, c, MsgType::kDataReady, 512));  // blocked
  h.fabric.send(make_msg(b, d, MsgType::kReadReq));
  h.engine.run();
  ASSERT_GE(h.delivered.size(), 61u);
  EXPECT_EQ(h.delivered.back().type, MsgType::kReadReq);
}

TEST(SwitchFabric, StatsAccounting) {
  SwitchHarness h;
  const EndpointId cpu = h.add("CPU", /*is_gpu=*/false);
  const EndpointId g0 = h.add("G0");
  const EndpointId g1 = h.add("G1");
  h.fabric.send(make_msg(cpu, g0, MsgType::kWriteReq, 512));
  h.fabric.send(make_msg(g0, g1, MsgType::kDataReady, 140));
  h.engine.run();
  EXPECT_EQ(h.fabric.stats().total_messages(), 2u);
  EXPECT_EQ(h.fabric.stats().inter_gpu_messages, 1u);
  EXPECT_EQ(h.fabric.stats().inter_gpu_payload_raw_bits, 512u);
  EXPECT_EQ(h.fabric.stats().inter_gpu_payload_wire_bits, 140u);
}

// ---------------------------------------------------------------------------
// End-to-end: switch vs bus on a real workload.
// ---------------------------------------------------------------------------

TEST(SwitchFabric, SystemRunsAndBeatsBusOnWallClock) {
  auto run_with = [](FabricKind kind) {
    BitonicSortWorkload wl(BitonicSortWorkload::Params{.n = 16384});
    SystemConfig cfg;
    cfg.fabric = kind;
    return run_workload(std::move(cfg), wl);
  };
  const RunResult bus = run_with(FabricKind::kBus);
  const RunResult sw = run_with(FabricKind::kSwitch);
  // Same functional work either way...
  EXPECT_EQ(bus.remote_reads(), sw.remote_reads());
  EXPECT_EQ(bus.remote_writes(), sw.remote_writes());
  EXPECT_EQ(bus.inter_gpu_traffic_bytes(), sw.inter_gpu_traffic_bytes());
  // ...but the crossbar's aggregate bandwidth finishes sooner.
  EXPECT_LT(sw.exec_ticks, bus.exec_ticks);
}

TEST(SwitchFabric, CompressionStillHelpsOnSwitch) {
  auto run_with = [](PolicyFactory policy) {
    BitonicSortWorkload wl(BitonicSortWorkload::Params{.n = 16384});
    SystemConfig cfg;
    cfg.fabric = FabricKind::kSwitch;
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
