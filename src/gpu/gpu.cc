#include "gpu/gpu.h"

#include "common/assert.h"

namespace mgcomp {

Gpu::Gpu(Engine& engine, Fabric& bus, GlobalMemory& mem, const AddressMap& map,
         Collector& collector, GpuId id, const GpuParams& params)
    : engine_(&engine),
      mem_(&mem),
      map_(&map),
      id_(id),
      params_(params),
      dram_(params.l2_banks, params.dram),
      rdma_(engine, bus, mem, map, collector, id) {
  MGCOMP_CHECK(params_.num_cus > 0 && params_.cus_per_scalar_cache > 0);
  MGCOMP_CHECK_MSG(params_.l2_banks == map.channels_per_gpu(),
                   "L2 banks must match DRAM channels (bank = channel)");
  for (std::uint32_t c = 0; c < params_.num_cus; ++c) {
    cus_.push_back(std::make_unique<ComputeUnit>(engine, *this, CuId{c}, params_.cu_window));
    l1v_.emplace_back(params_.l1v_bytes, params_.l1v_ways);
  }
  const std::uint32_t num_scalar =
      (params_.num_cus + params_.cus_per_scalar_cache - 1) / params_.cus_per_scalar_cache;
  for (std::uint32_t s = 0; s < num_scalar; ++s) {
    l1s_.emplace_back(params_.l1s_bytes, params_.l1s_ways);
  }
  for (std::uint32_t b = 0; b < params_.l2_banks; ++b) {
    l2_.emplace_back(params_.l2_bank_bytes, params_.l2_ways);
  }
}

void Gpu::configure(EndpointId self_ep, std::function<EndpointId(GpuId)> gpu_endpoint,
                    std::unique_ptr<CompressionPolicy> policy, const RetryParams& retry,
                    bool link_faults) {
  rdma_.configure(
      self_ep, std::move(gpu_endpoint),
      [this](Addr addr, bool is_write) { return owner_access(addr, is_write); },
      std::move(policy), retry, link_faults);
}

Tick Gpu::owner_access(Addr addr, bool is_write) {
  MGCOMP_CHECK_MSG(is_local(addr), "owner_access on a non-local address");
  const ChannelId ch = map_->local_channel(addr);
  Cache& bank = l2_[ch.value];
  const Tick at_l2 = engine_->now() + params_.l2_latency;
  if (bank.access(addr, is_write)) return at_l2;
  return dram_.book(ch, at_l2);
}

bool Gpu::access(CuId cu, const MemOp& op, std::function<void()> done) {
  Cache& l1 = l1v_[cu.value];

  if (op.is_write) {
    // Write-through, write-allocate L1. Local writes are posted (they book
    // DRAM bandwidth but never stall the CU); remote writes hold a window
    // slot until the Write-ACK returns so fabric backpressure reaches the
    // CU.
    l1.access(op.addr, /*is_write=*/true);
    if (is_local(op.addr)) {
      owner_access(op.addr, /*is_write=*/true);
      return true;
    }
    rdma_.remote_write(op.addr, std::move(done));
    return false;
  }

  if (l1.access(op.addr, /*is_write=*/false)) return true;
  if (is_local(op.addr)) {
    const Tick ready = owner_access(op.addr, /*is_write=*/false);
    engine_->schedule_at(ready, std::move(done));
    return false;
  }
  rdma_.remote_read(op.addr, std::move(done));
  return false;
}

bool Gpu::scalar_read(CuId cu, Addr addr, std::function<void()> done) {
  Cache& l1s = l1s_[cu.value / params_.cus_per_scalar_cache];
  if (l1s.access(addr, /*is_write=*/false)) return true;
  if (is_local(addr)) {
    const Tick ready = owner_access(addr, /*is_write=*/false);
    engine_->schedule_at(ready, std::move(done));
    return false;
  }
  rdma_.remote_read(addr, std::move(done));
  return false;
}

void Gpu::flush_caches() {
  for (Cache& c : l1v_) c.invalidate_all();
  for (Cache& c : l1s_) c.invalidate_all();
  for (Cache& c : l2_) c.invalidate_all();
}

namespace {
CacheStats sum_stats(const std::vector<Cache>& caches) noexcept {
  CacheStats total;
  for (const Cache& c : caches) {
    total.read_hits += c.stats().read_hits;
    total.read_misses += c.stats().read_misses;
    total.write_hits += c.stats().write_hits;
    total.write_misses += c.stats().write_misses;
  }
  return total;
}
}  // namespace

CacheStats Gpu::l1v_stats() const noexcept { return sum_stats(l1v_); }
CacheStats Gpu::l1s_stats() const noexcept { return sum_stats(l1s_); }
CacheStats Gpu::l2_stats() const noexcept { return sum_stats(l2_); }

}  // namespace mgcomp
