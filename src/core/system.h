// MultiGpuSystem: the public entry point of the library.
//
// Builds the full simulated machine (Fig. 3: N GPUs + CPU on a shared
// fabric), runs a workload kernel by kernel under the configured
// compression policy, and returns the measured RunResult. One instance
// runs one workload once; construct a fresh system per run.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/run_stats.h"
#include "core/cpu_host.h"
#include "core/system_config.h"
#include "core/workload.h"
#include "gpu/gpu.h"
#include "obs/tracer.h"

namespace mgcomp {

class MultiGpuSystem {
 public:
  explicit MultiGpuSystem(SystemConfig config);
  ~MultiGpuSystem();

  MultiGpuSystem(const MultiGpuSystem&) = delete;
  MultiGpuSystem& operator=(const MultiGpuSystem&) = delete;

  /// Runs `workload` to completion and returns the measurements. Aborts if
  /// the workload's functional verification fails.
  RunResult run(Workload& workload);

  /// Assembles a RunResult from the system's current counters. run() calls
  /// this after the last kernel; external drivers that schedule their own
  /// traffic (the collective layer) call it after engine().run() drains.
  [[nodiscard]] RunResult collect_result(std::string_view name);

  /// Access to the functional memory (examples use this to inspect
  /// results after a run).
  [[nodiscard]] GlobalMemory& memory() noexcept { return *mem_; }

  // The building blocks external traffic drivers (src/collective/) need:
  // the event timeline, the page-ownership map, and each GPU's RDMA engine
  // and local memory hierarchy.
  [[nodiscard]] Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const AddressMap& address_map() const noexcept { return *map_; }
  [[nodiscard]] Gpu& gpu(std::uint32_t g) { return *gpus_.at(g); }

  /// Fabric endpoint of GPU `g` (health queries are endpoint-keyed).
  [[nodiscard]] EndpointId gpu_endpoint(std::uint32_t g) const { return gpu_endpoints_.at(g); }

  /// Health monitor; null unless fail-stop episodes are configured.
  [[nodiscard]] HealthMonitor* health() noexcept { return health_.get(); }
  [[nodiscard]] const HealthMonitor* health() const noexcept { return health_.get(); }

  [[nodiscard]] const SystemConfig& config() const noexcept { return config_; }

  /// The fabric/topology the system was actually built with (kAuto and the
  /// MGCOMP_TOPOLOGY / MGCOMP_GPUS_PER_NODE overrides already resolved).
  /// The collective layer keys its algorithm selection off this.
  [[nodiscard]] const ResolvedTopology& topology() const noexcept { return topo_; }
  [[nodiscard]] std::uint32_t total_cus() const noexcept {
    return config_.num_gpus * config_.gpu.num_cus;
  }

 private:
  void run_kernel(const KernelTrace& trace);

  /// Schedules the next watchdog check: aborts with diagnostics when no
  /// fabric message completed over a whole interval while requests are
  /// still outstanding (possible once links drop messages).
  void schedule_watchdog(Engine::CancelToken token, std::uint64_t last_messages,
                         const std::uint32_t* remaining);

  /// Human-readable stall diagnostics: per-GPU outstanding requests and
  /// per-endpoint buffer/queue occupancy.
  [[nodiscard]] std::string stall_dump(const char* why) const;

  SystemConfig config_;
  ResolvedTopology topo_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<GlobalMemory> mem_;
  std::unique_ptr<AddressMap> map_;
  std::unique_ptr<CodecSet> codecs_;
  std::unique_ptr<Collector> collector_;
  std::unique_ptr<Tracer> tracer_;  ///< null unless config_.trace_events > 0
  std::unique_ptr<Fabric> bus_;
  std::unique_ptr<FaultInjector> fault_;
  /// Both null unless config_.episodes is non-empty (zero-cost when off).
  std::unique_ptr<EpisodeScheduler> episodes_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<CpuHost> cpu_;
  std::vector<std::unique_ptr<Gpu>> gpus_;
  std::vector<EndpointId> gpu_endpoints_;
};

/// Convenience: build a system from `config`, run `workload`, return stats.
RunResult run_workload(SystemConfig config, Workload& workload);

}  // namespace mgcomp
