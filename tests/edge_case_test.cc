// Edge cases across modules: degenerate configurations, boundary
// parameters, and failure paths.
#include <gtest/gtest.h>

#include "core/system.h"
#include "workloads/all_workloads.h"
#include "workloads/emit.h"
#include "workloads/matrix_transpose.h"

namespace mgcomp {
namespace {

// ---------------------------------------------------------------------------
// emit() coalescing.
// ---------------------------------------------------------------------------

TEST(Emit, MergesConsecutiveSameLineSameType) {
  WorkgroupTrace wg;
  emit_read(wg, 0x1000);
  emit_read(wg, 0x1004);   // same line
  emit_read(wg, 0x103F);   // same line, last byte
  EXPECT_EQ(wg.ops.size(), 1u);
  emit_read(wg, 0x1040);   // next line
  EXPECT_EQ(wg.ops.size(), 2u);
}

TEST(Emit, TypeChangeBreaksCoalescing) {
  WorkgroupTrace wg;
  emit_read(wg, 0x1000);
  emit_write(wg, 0x1000);
  emit_read(wg, 0x1000);
  EXPECT_EQ(wg.ops.size(), 3u);
  EXPECT_FALSE(wg.ops[0].is_write);
  EXPECT_TRUE(wg.ops[1].is_write);
}

TEST(Emit, AlwaysLineAligns) {
  WorkgroupTrace wg;
  emit_write(wg, 0x1234567);
  EXPECT_EQ(wg.ops[0].addr % kLineBytes, 0u);
}

TEST(Emit, ParamLineHoldsKernelIndexAndArgs) {
  GlobalMemory mem;
  const Addr base = mem.alloc(4 * kLineBytes);
  const Addr addr = write_param_line(mem, base, 2, {0xABCD1234u, 42});
  EXPECT_EQ(addr, base + 2 * kLineBytes);
  EXPECT_EQ(mem.load<std::uint32_t>(addr), 2u);            // kernel index
  EXPECT_EQ(mem.load<std::uint64_t>(addr + 4), 0xABCD1234u);  // arg 0 (as u64)
  EXPECT_EQ(mem.load<std::uint64_t>(addr + 12), 42u);         // arg 1
}

// ---------------------------------------------------------------------------
// Degenerate adaptive configurations.
// ---------------------------------------------------------------------------

TEST(AdaptiveEdge, ZeroRunningTransfersMeansContinuousSampling) {
  CodecSet set;
  AdaptiveParams params{.sample_transfers = 7, .running_transfers = 0};
  auto policy = make_adaptive_policy(params)(set);
  Line l{};
  for (int i = 0; i < 21; ++i) {
    EXPECT_TRUE(policy->decide(l).sampled) << "transfer " << i;
  }
  EXPECT_EQ(policy->stats().votes_taken, 3u);
}

TEST(AdaptiveEdge, SingleSampleVotes) {
  CodecSet set;
  AdaptiveParams params{.sample_transfers = 1, .running_transfers = 5};
  auto policy = make_adaptive_policy(params)(set);
  (void)policy->decide(zero_line());
  EXPECT_EQ(policy->stats().votes_taken, 1u);
  // Zero line: every codec compresses; vote must not be "None".
  EXPECT_EQ(policy->stats().vote_wins[static_cast<std::size_t>(CodecId::kNone)], 0u);
}

// ---------------------------------------------------------------------------
// Degenerate system configurations.
// ---------------------------------------------------------------------------

TEST(SystemEdge, TwoGpuSystemRuns) {
  MatrixTransposeWorkload wl(MatrixTransposeWorkload::Params{.n = 128});
  SystemConfig cfg;
  cfg.num_gpus = 2;
  const RunResult r = run_workload(std::move(cfg), wl);
  EXPECT_GT(r.remote_reads(), 0u);
}

TEST(SystemEdge, EightGpuSystemRuns) {
  MatrixTransposeWorkload wl(MatrixTransposeWorkload::Params{.n = 128});
  SystemConfig cfg;
  cfg.num_gpus = 8;
  const RunResult r = run_workload(std::move(cfg), wl);
  EXPECT_GT(r.remote_reads(), 0u);
}

TEST(SystemEdge, TinyBusStillDrains) {
  MatrixTransposeWorkload wl(MatrixTransposeWorkload::Params{.n = 64});
  SystemConfig cfg;
  // exec >= total wire bytes at 1 B/cycle holds only when every byte
  // serializes through one shared medium; pin the bus fabric so the
  // MGCOMP_TOPOLOGY sweep (parallel ports) doesn't break the bound.
  cfg.fabric = FabricKind::kBus;
  cfg.bus.bytes_per_cycle = 1;  // brutally slow link
  const RunResult r = run_workload(std::move(cfg), wl);
  EXPECT_GE(r.exec_ticks, r.bus.total_wire_bytes());  // ~1 B/cycle
}

TEST(SystemEdge, TinyInputBuffersStillDrain) {
  MatrixTransposeWorkload wl(MatrixTransposeWorkload::Params{.n = 64});
  SystemConfig cfg;
  cfg.bus.input_buffer_bytes = 128;  // two payload messages deep
  const RunResult r = run_workload(std::move(cfg), wl);
  EXPECT_GT(r.remote_reads(), 0u);
}

TEST(SystemEdge, ResponsePriorityBusRunsWholeWorkload) {
  MatrixTransposeWorkload wl(MatrixTransposeWorkload::Params{.n = 128});
  SystemConfig cfg;
  cfg.bus.response_priority = true;
  cfg.policy = make_adaptive_policy(AdaptiveParams{.lambda = 6.0});
  const RunResult r = run_workload(std::move(cfg), wl);
  EXPECT_GT(r.remote_reads(), 0u);
  EXPECT_LT(r.bus.inter_gpu_payload_wire_bits, r.bus.inter_gpu_payload_raw_bits);
}

TEST(SystemEdge, SwitchFabricWithManyGpus) {
  MatrixTransposeWorkload wl(MatrixTransposeWorkload::Params{.n = 128});
  SystemConfig cfg;
  cfg.num_gpus = 8;
  cfg.fabric = FabricKind::kSwitch;
  const RunResult r = run_workload(std::move(cfg), wl);
  EXPECT_GT(r.remote_reads(), 0u);
}

// Workload functional verification failures must abort loudly, not return
// quietly wrong results.
class LyingWorkload final : public Workload {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "liar"; }
  [[nodiscard]] std::string_view abbrev() const noexcept override { return "LIE"; }
  void setup(GlobalMemory& mem) override { base_ = mem.alloc(kPageBytes); }
  [[nodiscard]] std::size_t kernel_count() const override { return 1; }
  KernelTrace generate_kernel(std::size_t, GlobalMemory&) override {
    KernelTrace t;
    WorkgroupTrace wg;
    wg.ops.push_back(MemOp{base_, false});
    t.workgroups.push_back(std::move(wg));
    return t;
  }
  [[nodiscard]] bool verify(const GlobalMemory&) const override { return false; }

 private:
  Addr base_{0};
};

TEST(SystemEdgeDeathTest, FailedVerificationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        LyingWorkload wl;
        (void)run_workload(SystemConfig{}, wl);
      },
      "verification failed");
}

// A zero-bandwidth fabric would divide by zero on its first transfer; each
// fabric rejects it at construction with a named reason instead.
TEST(SystemEdgeDeathTest, ZeroFabricBandwidthIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const struct {
    FabricKind kind;
    const char* error;
  } kCases[] = {
      {FabricKind::kBus, "BusFabric: bytes_per_cycle must be >= 1"},
      {FabricKind::kSwitch, "SwitchFabric: bytes_per_cycle must be >= 1"},
      {FabricKind::kHier, "HierFabric: bytes_per_cycle must be >= 1"},
  };
  for (const auto& c : kCases) {
    SystemConfig cfg;
    cfg.fabric = c.kind;
    cfg.bus.bytes_per_cycle = 0;
    EXPECT_DEATH({ MultiGpuSystem sys(cfg); }, c.error);
  }
}

TEST(SystemEdgeDeathTest, ShardsOtherThanOneAreRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SystemConfig cfg;
  cfg.shards = 4;
  EXPECT_DEATH({ MultiGpuSystem sys(cfg); }, "sharded execution was removed");
}

// ---------------------------------------------------------------------------
// Workload factory edges.
// ---------------------------------------------------------------------------

TEST(FactoryEdge, UnknownAbbrevReturnsNull) {
  EXPECT_EQ(make_workload("NOPE"), nullptr);
  EXPECT_EQ(make_workload(""), nullptr);
}

TEST(FactoryEdge, TinyScaleStaysRunnable) {
  for (auto& wl : make_all_workloads(0.01)) {
    GlobalMemory mem;
    wl->setup(mem);
    EXPECT_GT(wl->kernel_count(), 0u) << wl->abbrev();
    const KernelTrace t = wl->generate_kernel(0, mem);
    EXPECT_GT(t.total_ops(), 0u) << wl->abbrev();
  }
}

}  // namespace
}  // namespace mgcomp
