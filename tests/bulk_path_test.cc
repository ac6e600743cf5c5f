// Bulk-transfer fast path: page-granularity RDMA blocks end to end.
//
// Three layers of protection:
//   * protocol — remote_read_bulk / remote_write_bulk round-trip on a
//     hand-wired two-GPU rig with one message pair per block, split bulk
//     latency histograms, and payload-pool recycling;
//   * collectives — block pulls at every lines_per_block reproduce the
//     per-line reference digests bit-exactly, clean and under injected
//     bit errors (the CRC/NACK/replay protocol covers blocks too);
//   * determinism — the bulk collective fingerprint is pinned by a
//     recorded golden.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/collector.h"
#include "collective/collective.h"
#include "core/system.h"
#include "gpu/gpu.h"

namespace mgcomp {
namespace {

/// Minimal two-GPU rig wired by hand (no workload, no MultiGpuSystem) so
/// individual bulk message flows can be observed.
struct Rig {
  Engine engine;
  GlobalMemory mem;
  AddressMap map{2, 8};
  CodecSet codecs;
  Collector collector;
  BusFabric bus{engine, BusFabric::Params{}};
  std::vector<std::unique_ptr<Gpu>> gpus;
  std::vector<EndpointId> eps;

  explicit Rig(PolicyFactory policy = make_no_compression_policy()) {
    GpuParams params;
    for (std::uint32_t g = 0; g < 2; ++g) {
      gpus.push_back(std::make_unique<Gpu>(engine, bus, mem, map, collector, GpuId{g},
                                           params));
    }
    for (std::uint32_t g = 0; g < 2; ++g) {
      RdmaEngine& rdma = gpus[g]->rdma();
      eps.push_back(bus.add_endpoint("GPU" + std::to_string(g), true,
                                     [&rdma](Message&& m) { rdma.deliver(std::move(m)); }));
    }
    for (std::uint32_t g = 0; g < 2; ++g) {
      gpus[g]->configure(eps[g], [this](GpuId id) { return eps.at(id.value); },
                         policy(codecs));
    }
  }

  /// An address owned by GPU 1 (pages 8..15 with channels_per_gpu = 8).
  [[nodiscard]] Addr owned_by_peer() const { return static_cast<Addr>(8) * kPageBytes; }

  [[nodiscard]] std::uint64_t messages(MsgType t) const {
    return bus.stats().messages[static_cast<std::size_t>(t)];
  }
};

TEST(BulkRdma, PageReadIsOneMessagePair) {
  Rig rig;
  bool done = false;
  rig.gpus[0]->rdma().remote_read_bulk(rig.owned_by_peer(), kPageBytes,
                                       [&](bool ok) { done = ok; });
  rig.engine.run();
  EXPECT_TRUE(done);
  // One request and one multi-line Data-Ready carried the whole page.
  EXPECT_EQ(rig.messages(MsgType::kReadReq), 1u);
  EXPECT_EQ(rig.messages(MsgType::kDataReady), 1u);
  EXPECT_EQ(rig.gpus[0]->rdma().outstanding(), 0u);
  EXPECT_EQ(rig.collector.bulk_read_latency().count(), 1u);
  EXPECT_EQ(rig.collector.read_latency().count(), 0u);
  EXPECT_EQ(rig.collector.bulk_payloads(), 1u);
  EXPECT_EQ(rig.collector.bulk_raw_bytes(), kPageBytes);
}

TEST(BulkRdma, PageWriteIsOneMessagePair) {
  Rig rig;
  bool acked = false;
  rig.gpus[0]->rdma().remote_write_bulk(rig.owned_by_peer(), kPageBytes,
                                        [&](bool ok) { acked = ok; });
  rig.engine.run();
  EXPECT_TRUE(acked);
  EXPECT_EQ(rig.messages(MsgType::kWriteReq), 1u);
  EXPECT_EQ(rig.messages(MsgType::kWriteAck), 1u);
  EXPECT_EQ(rig.collector.bulk_write_latency().count(), 1u);
  EXPECT_EQ(rig.collector.write_latency().count(), 0u);
}

TEST(BulkRdma, SingleLineLengthDelegatesToLinePath) {
  Rig rig;
  bool done = false;
  rig.gpus[0]->rdma().remote_read_bulk(rig.owned_by_peer(), kLineBytes,
                                       [&](bool ok) { done = ok; });
  rig.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.collector.read_latency().count(), 1u);
  EXPECT_EQ(rig.collector.bulk_read_latency().count(), 0u);
  EXPECT_EQ(rig.collector.bulk_payloads(), 0u);
}

TEST(BulkRdma, PayloadPoolRecyclesBulkBuffers) {
  Rig rig;
  int done = 0;
  // Page reads release their arrived blocks into the requester's pool;
  // the page writes that follow must recycle those buffers instead of
  // allocating fresh ones.
  std::function<void(int)> write_back = [&](int remaining) {
    rig.gpus[0]->rdma().remote_write_bulk(rig.owned_by_peer(), kPageBytes,
                                          [&, remaining](bool) {
                                            ++done;
                                            if (remaining > 1) write_back(remaining - 1);
                                          });
  };
  std::function<void(int)> read_in = [&](int remaining) {
    rig.gpus[0]->rdma().remote_read_bulk(rig.owned_by_peer(), kPageBytes,
                                         [&, remaining](bool) {
                                           ++done;
                                           if (remaining > 1) {
                                             read_in(remaining - 1);
                                           } else {
                                             write_back(4);
                                           }
                                         });
  };
  read_in(4);
  rig.engine.run();
  EXPECT_EQ(done, 8);
  const PayloadPool& requester_pool = rig.gpus[0]->rdma().payload_pool();
  EXPECT_EQ(requester_pool.hits(), 4u);
  EXPECT_EQ(requester_pool.bulk_misses(), 0u);
}

// ---------------------------------------------------------------------------
// Collective-level identity: block pulls must never change the math.

CollectiveOutcome run_bulk(std::uint32_t ranks, std::uint32_t lines_per_block,
                           double ber = 0.0, std::size_t lines_per_rank = 256) {
  SystemConfig cfg;
  // Pinned: the golden fingerprint below encodes bus-fabric timing, which
  // a CI topology sweep (MGCOMP_TOPOLOGY=...) must not re-route.
  cfg.fabric = FabricKind::kBus;
  cfg.num_gpus = ranks;
  cfg.policy = make_adaptive_policy(AdaptiveParams{});
  cfg.fault.bit_error_rate = ber;
  MultiGpuSystem sys(std::move(cfg));
  CollectiveConfig ccfg;
  ccfg.lines_per_rank = lines_per_rank;
  ccfg.lines_per_block = lines_per_block;
  return run_collective(sys, ccfg);
}

TEST(BulkCollective, BlockPullsReproducePerLineDigest) {
  const CollectiveOutcome ref = run_bulk(8, 1);
  ASSERT_TRUE(ref.verified);
  EXPECT_EQ(ref.run.collective.block_transfers, 0u);
  for (const std::uint32_t lpb : {4u, 16u, 64u}) {
    const CollectiveOutcome bulk = run_bulk(8, lpb);
    ASSERT_TRUE(bulk.verified) << "lines_per_block=" << lpb;
    EXPECT_EQ(bulk.data_digest, ref.data_digest) << "lines_per_block=" << lpb;
    EXPECT_GT(bulk.run.collective.block_transfers, 0u) << "lines_per_block=" << lpb;
    // line_transfers still counts lines, so the payload invariant holds.
    EXPECT_EQ(bulk.run.collective.payload_bytes,
              bulk.run.collective.line_transfers * kLineBytes);
    EXPECT_EQ(bulk.run.collective.line_transfers, ref.run.collective.line_transfers);
  }
}

TEST(BulkCollective, BitErrorsRecoveredOnBlockPayloads) {
  const CollectiveOutcome clean = run_bulk(4, 64);
  const CollectiveOutcome faulty = run_bulk(4, 64, /*ber=*/1e-5);
  ASSERT_TRUE(clean.verified);
  ASSERT_TRUE(faulty.verified);
  EXPECT_EQ(clean.data_digest, faulty.data_digest);
  // The injected errors actually hit messages and the protocol recovered:
  // corrupted pulls are NACKed and the owner replays the block payload.
  EXPECT_GT(faulty.run.faults.bit_errors, 0u);
  EXPECT_GT(faulty.run.link.crc_failures, 0u);
  EXPECT_GT(faulty.run.link.retransmissions() + faulty.run.link.replay_hits, 0u);
}

TEST(BulkCollective, FasterThanPerLineOnCompressibleFill) {
  const CollectiveOutcome per_line = run_bulk(8, 1);
  const CollectiveOutcome bulk = run_bulk(8, 64);
  ASSERT_TRUE(per_line.verified && bulk.verified);
  EXPECT_LT(bulk.run.collective.duration, per_line.run.collective.duration);
}

// The bulk path's headline: once each rank's chunk spans whole pages (512
// lines over 8 ranks = one 64-line page block per chunk), page blocks carry
// at least 3x the per-line algorithm bandwidth on the compressible fill.
TEST(BulkCollective, PageBlocksTripleAlgBandwidth) {
  const CollectiveOutcome per_line = run_bulk(8, 1, 0.0, 512);
  const CollectiveOutcome bulk = run_bulk(8, 64, 0.0, 512);
  ASSERT_TRUE(per_line.verified && bulk.verified);
  const double per_line_alg = per_line.run.collective.alg_bytes_per_cycle();
  const double bulk_alg = bulk.run.collective.alg_bytes_per_cycle();
  EXPECT_GE(bulk_alg, 3.0 * per_line_alg)
      << "bulk " << bulk_alg << " B/cycle vs per-line " << per_line_alg << " B/cycle";
}

// ---------------------------------------------------------------------------
// Determinism: the bulk schedule is pinned by a recorded golden so silent
// drift fails loudly.

TEST(BulkCollective, GoldenFingerprint) {
  const CollectiveOutcome out = run_bulk(4, 16);
  ASSERT_TRUE(out.verified);
  // Recorded golden for: all-reduce, 4 ranks, 256 lines per rank, lowrange
  // fill, adaptive policy, lines_per_block = 16. Any timing
  // or protocol change on the bulk path shows up here first; update only
  // with a justification in the commit message.
  EXPECT_EQ(collective_fingerprint(out), 0xc57ba21dcfcd91cfULL)
      << std::hex << collective_fingerprint(out);
}

}  // namespace
}  // namespace mgcomp
