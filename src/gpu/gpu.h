// One GPU: compute units, L1 vector/scalar caches, banked L2, DRAM
// channels, and the RDMA engine that connects it to its peers.
//
// Defaults follow Table VII (R9-Nano-like): 16 CUs; 16 KB 4-way L1 vector
// cache per CU; 16 KB 4-way scalar cache shared by 4 CUs; 8 L2 banks of
// 256 KB, 16-way; 8 DRAM channels.
#pragma once

#include <memory>
#include <vector>

#include "gpu/compute_unit.h"
#include "gpu/rdma.h"
#include "memory/cache.h"
#include "memory/dram.h"

namespace mgcomp {

struct GpuParams {
  std::uint32_t num_cus{16};
  std::size_t l1v_bytes{16 * 1024};
  std::uint32_t l1v_ways{4};
  std::size_t l1s_bytes{16 * 1024};
  std::uint32_t l1s_ways{4};
  std::uint32_t cus_per_scalar_cache{4};
  std::size_t l2_bank_bytes{256 * 1024};
  std::uint32_t l2_ways{16};
  std::uint32_t l2_banks{8};
  Tick l2_latency{20};
  DramParams dram;
  /// Max outstanding memory requests per CU.
  std::uint32_t cu_window{16};
};

class Gpu {
 public:
  Gpu(Engine& engine, Fabric& bus, GlobalMemory& mem, const AddressMap& map,
      Collector& collector, GpuId id, const GpuParams& params);

  /// Registers this GPU on the fabric and installs its compression policy.
  /// `gpu_endpoint` maps a GpuId to its fabric endpoint. `retry` and
  /// `link_faults` arm the RDMA engine's retransmission protocol; the
  /// defaults keep it off (lossless fabric).
  void configure(EndpointId self_ep, std::function<EndpointId(GpuId)> gpu_endpoint,
                 std::unique_ptr<CompressionPolicy> policy,
                 const RetryParams& retry = {}, bool link_faults = false);

  /// CU-facing vector memory access. Returns true if the op completed
  /// inline (L1 hit or posted local write); otherwise `done` fires later
  /// and the op occupies a CU window slot until then.
  bool access(CuId cu, const MemOp& op, std::function<void()> done);

  /// CU-facing scalar read (kernel parameters) through the shared scalar
  /// cache. Same completion contract as access().
  bool scalar_read(CuId cu, Addr addr, std::function<void()> done);

  /// Books a line access in the local L2/DRAM (used for this GPU's own
  /// misses and for requests arriving from remote GPUs); returns the
  /// absolute completion tick.
  Tick owner_access(Addr addr, bool is_write);

  /// Invalidates L1V/L1S/L2 (kernel-boundary flush).
  void flush_caches();

  [[nodiscard]] GpuId id() const noexcept { return id_; }
  [[nodiscard]] std::uint32_t num_cus() const noexcept {
    return static_cast<std::uint32_t>(cus_.size());
  }
  [[nodiscard]] ComputeUnit& cu(CuId c) { return *cus_.at(c.value); }
  [[nodiscard]] RdmaEngine& rdma() noexcept { return rdma_; }

  [[nodiscard]] CacheStats l1v_stats() const noexcept;
  [[nodiscard]] CacheStats l1s_stats() const noexcept;
  [[nodiscard]] CacheStats l2_stats() const noexcept;
  [[nodiscard]] const DramChannels& dram() const noexcept { return dram_; }

 private:
  [[nodiscard]] bool is_local(Addr addr) const noexcept { return map_->owner(addr) == id_; }

  Engine* engine_;
  GlobalMemory* mem_;
  const AddressMap* map_;
  GpuId id_;
  GpuParams params_;

  std::vector<std::unique_ptr<ComputeUnit>> cus_;
  std::vector<Cache> l1v_;   // one per CU
  std::vector<Cache> l1s_;   // one per cus_per_scalar_cache CUs
  std::vector<Cache> l2_;    // one per bank (bank = local channel)
  DramChannels dram_;
  RdmaEngine rdma_;
};

}  // namespace mgcomp
