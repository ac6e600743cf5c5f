#include "core/system.h"

#include <string>

#include "common/assert.h"

namespace mgcomp {

MultiGpuSystem::MultiGpuSystem(SystemConfig config) : config_(std::move(config)) {
  MGCOMP_CHECK_MSG(config_.num_gpus >= kMinGpus && config_.num_gpus <= kMaxGpus,
                   "SystemConfig::num_gpus must be in [2, 64]");
  topo_ = config_.resolved_topology();
  if (topo_.fabric == FabricKind::kHier) {
    MGCOMP_CHECK_MSG(topo_.hier.gpus_per_node >= 1 &&
                         topo_.hier.gpus_per_node <= config_.num_gpus &&
                         config_.num_gpus % topo_.hier.gpus_per_node == 0,
                     "SystemConfig::hier.gpus_per_node must divide num_gpus");
    MGCOMP_CHECK_MSG(topo_.hier.internode_bw_ratio >= 1,
                     "SystemConfig::hier.internode_bw_ratio must be >= 1");
    MGCOMP_CHECK_MSG(config_.episodes.empty(),
                     "hierarchical fabric has no fail-stop episode support");
  }

  MGCOMP_CHECK_MSG(config_.shards == 1,
                   "SystemConfig::shards must be 1: sharded execution was removed");

  engine_ = std::make_unique<Engine>();
  mem_ = std::make_unique<GlobalMemory>();
  map_ = std::make_unique<AddressMap>(config_.num_gpus, config_.gpu.l2_banks);
  codecs_ = std::make_unique<CodecSet>();
  collector_ = std::make_unique<Collector>();
  if (config_.characterize) collector_->enable_characterization(*codecs_);
  if (config_.trace_samples > 0) collector_->enable_trace(*codecs_, config_.trace_samples);

  switch (topo_.fabric) {
    case FabricKind::kSwitch:
      bus_ = std::make_unique<SwitchFabric>(
          *engine_,
          SwitchFabric::Params{.bytes_per_cycle = config_.bus.bytes_per_cycle,
                               .input_buffer_bytes = config_.bus.input_buffer_bytes});
      break;
    case FabricKind::kHier:
      bus_ = std::make_unique<HierFabric>(
          *engine_,
          HierFabric::Params{.bytes_per_cycle = config_.bus.bytes_per_cycle,
                             .input_buffer_bytes = config_.bus.input_buffer_bytes,
                             .topo = topo_.hier});
      break;
    case FabricKind::kAuto:  // resolved_topology() never returns kAuto
    case FabricKind::kBus:
      bus_ = std::make_unique<BusFabric>(*engine_, config_.bus);
      break;
  }
  if (config_.fault.any()) {
    fault_ = std::make_unique<FaultInjector>(config_.fault);
    bus_->set_fault_injector(fault_.get());
  }
  if (config_.trace_events > 0) {
    tracer_ = std::make_unique<Tracer>(*engine_, config_.trace_events);
    bus_->set_tracer(tracer_.get());
    tracer_->set_track_name(kFabricTrack, "fabric");
  }
  cpu_ = std::make_unique<CpuHost>(*bus_, *map_, *mem_);

  for (std::uint32_t g = 0; g < config_.num_gpus; ++g) {
    gpus_.push_back(std::make_unique<Gpu>(*engine_, *bus_, *mem_, *map_, *collector_,
                                          GpuId{g}, config_.gpu));
  }
  // Endpoint registration is a second pass so the id->endpoint closure can
  // capture the complete table.
  for (std::uint32_t g = 0; g < config_.num_gpus; ++g) {
    RdmaEngine& rdma = gpus_[g]->rdma();
    const EndpointId ep = bus_->add_endpoint(
        "GPU" + std::to_string(g), /*is_gpu=*/true,
        [&rdma](Message&& m) { rdma.deliver(std::move(m)); });
    gpu_endpoints_.push_back(ep);
  }
  for (std::uint32_t g = 0; g < config_.num_gpus; ++g) {
    auto policy = config_.policy(*codecs_);
    policy->set_pressure_probe(
        [this] { return FabricPressure{bus_->stats().busy_cycles, engine_->now()}; });
    gpus_[g]->configure(
        gpu_endpoints_[g], [this](GpuId id) { return gpu_endpoints_.at(id.value); },
        std::move(policy), config_.retry, config_.reliability_enabled());
    if (tracer_ != nullptr) {
      gpus_[g]->rdma().set_tracer(tracer_.get(), endpoint_track(gpu_endpoints_[g].value));
    }
  }
  if (tracer_ != nullptr) {
    for (std::size_t e = 0; e < bus_->endpoint_count(); ++e) {
      const EndpointId ep{static_cast<std::uint32_t>(e)};
      tracer_->set_track_name(endpoint_track(ep.value), bus_->endpoint_name(ep));
    }
  }

  // Fail-stop fault domains. Constructed only when episodes exist so that
  // episode-free runs schedule a bit-identical event sequence (the golden
  // fingerprints depend on it).
  if (!config_.episodes.empty()) {
    episodes_ = std::make_unique<EpisodeScheduler>(
        *engine_, config_.episodes, config_.num_gpus,
        static_cast<std::uint32_t>(bus_->endpoint_count()),
        [this](std::uint32_t g) { return gpu_endpoints_.at(g); });
    health_ = std::make_unique<HealthMonitor>(
        *engine_, static_cast<std::uint32_t>(bus_->endpoint_count()), config_.health,
        episodes_.get());
    episodes_->bind(health_.get());
    bus_->set_health_monitor(health_.get());
    health_->set_on_change([this] { bus_->on_health_change(); });
    if (tracer_ != nullptr) health_->set_tracer(tracer_.get());
    for (auto& gpu : gpus_) gpu->rdma().set_health_monitor(health_.get());
    episodes_->schedule_all();
  }
}

MultiGpuSystem::~MultiGpuSystem() = default;

void MultiGpuSystem::run_kernel(const KernelTrace& trace) {
  if (trace.param_addr != 0) {
    cpu_->launch_params(trace.param_addr,
                        [this](GpuId id) { return gpu_endpoints_.at(id.value); });
  }

  // Round-robin workgroup scheduling across all CUs of all GPUs
  // (Section VI-A).
  const std::uint32_t n_cus = total_cus();
  std::vector<std::vector<const WorkgroupTrace*>> assignment(n_cus);
  for (std::size_t w = 0; w < trace.workgroups.size(); ++w) {
    assignment[w % n_cus].push_back(&trace.workgroups[w]);
  }

  std::uint32_t remaining = 0;
  for (std::uint32_t c = 0; c < n_cus; ++c) {
    if (!assignment[c].empty()) ++remaining;
  }
  if (remaining == 0) return;  // empty kernel (e.g. pure host work)

  // Watchdog (faults only): lossless runs cannot stall, and keeping it off
  // there means the fault-free event schedule is bit-identical to a build
  // without the reliability layer. The kernel-completion callback cancels
  // the token so a pending watchdog event never extends measured time.
  Engine::CancelToken wd_token;
  if (config_.reliability_enabled() && config_.watchdog_interval > 0) {
    wd_token = std::make_shared<Engine::CancelState>();
    schedule_watchdog(wd_token, bus_->stats().total_messages(), &remaining);
  }

  for (std::uint32_t c = 0; c < n_cus; ++c) {
    if (assignment[c].empty()) continue;
    Gpu& gpu = *gpus_[c / config_.gpu.num_cus];
    gpu.cu(CuId{c % config_.gpu.num_cus})
        .start_kernel(trace, std::move(assignment[c]), [this, &remaining, &wd_token] {
          if (--remaining == 0 && wd_token) engine_->cancel(wd_token);
        });
  }

  engine_->run();
  if (remaining != 0) {
    MGCOMP_CHECK_MSG(
        false, stall_dump("kernel did not drain: event queue empty with requests pending")
                   .c_str());
  }

  // Kernel-boundary cache flush: makes producer/consumer data between
  // kernels visible across GPUs, as real GPUs do at dispatch boundaries.
  for (auto& gpu : gpus_) gpu->flush_caches();
}

void MultiGpuSystem::schedule_watchdog(Engine::CancelToken token,
                                       std::uint64_t last_messages,
                                       const std::uint32_t* remaining) {
  engine_->schedule_cancellable_in(
      config_.watchdog_interval,
      [this, token, last_messages, remaining] {
        if (*remaining == 0) return;  // completed between cancel and pop
        const std::uint64_t now_messages = bus_->stats().total_messages();
        if (now_messages == last_messages) {
          MGCOMP_CHECK_MSG(
              false, stall_dump("watchdog: no fabric progress for a full interval").c_str());
        }
        schedule_watchdog(token, now_messages, remaining);
      },
      token);
}

std::string MultiGpuSystem::stall_dump(const char* why) const {
  std::string s(why);
  s += " @tick " + std::to_string(engine_->now());
  // pending() counts live events only; queued() includes cancelled slots
  // still occupying their heaps, so the gap between the two is cancelled
  // timer debris, not real work.
  s += "\n  engine: live_events=" + std::to_string(engine_->pending()) +
       " queued=" + std::to_string(engine_->queued());
  for (std::uint32_t g = 0; g < config_.num_gpus; ++g) {
    s += "\n  GPU" + std::to_string(g) +
         ": outstanding=" + std::to_string(gpus_[g]->rdma().outstanding());
  }
  for (std::size_t e = 0; e < bus_->endpoint_count(); ++e) {
    const EndpointId ep{static_cast<std::uint32_t>(e)};
    s += "\n  EP" + std::to_string(e) +
         ": in_buffer_bytes=" + std::to_string(bus_->in_buffer_bytes(ep)) +
         " out_queue=" + std::to_string(bus_->out_queue_depth(ep));
  }
  if (health_ != nullptr) {
    s += "\n";
    s += health_->dump();
  }
  return s;
}

RunResult MultiGpuSystem::run(Workload& workload) {
  workload.setup(*mem_);

  const std::size_t kernels = workload.kernel_count();
  for (std::size_t k = 0; k < kernels; ++k) {
    const KernelTrace trace = workload.generate_kernel(k, *mem_);
    run_kernel(trace);
  }

  MGCOMP_CHECK_MSG(workload.verify(*mem_), "workload functional verification failed");
  return collect_result(workload.abbrev());
}

RunResult MultiGpuSystem::collect_result(std::string_view name) {
  RunResult r;
  r.workload = std::string(name);
  r.exec_ticks = engine_->now();
  r.events_executed = engine_->events_executed();
  r.bus = bus_->stats();
  r.fabric_energy_pj = static_cast<double>(r.bus.inter_gpu_wire_bytes) * 8.0 *
                       fabric_pj_per_bit(config_.energy_tier);
  r.compressor_energy_pj = collector_->compressor_energy_pj();
  r.decompressor_energy_pj = collector_->decompressor_energy_pj();
  r.characterization = collector_->characterization();
  r.trace = collector_->trace();
  r.link = collector_->link();
  r.link_errors = collector_->link_errors();
  r.link_errors_dropped = collector_->link_errors_dropped();
  if (fault_ != nullptr) r.faults = fault_->stats();
  if (health_ != nullptr) r.health = health_->stats();
  r.remote_read_latency = collector_->read_latency();
  r.remote_write_latency = collector_->write_latency();
  r.bulk_read_latency = collector_->bulk_read_latency();
  r.bulk_write_latency = collector_->bulk_write_latency();
  r.bulk_payloads = collector_->bulk_payloads();
  r.bulk_raw_bytes = collector_->bulk_raw_bytes();
  r.bulk_wire_payload_bytes = collector_->bulk_wire_payload_bytes();
  if (tracer_ != nullptr) {
    // Close each policy's open phase span so the trace tiles the full run.
    for (auto& gpu : gpus_) gpu->rdma().policy().trace_flush();
    r.trace_json = tracer_->export_json();
    r.trace_events_recorded = tracer_->recorded();
    r.trace_events_dropped = tracer_->dropped();
  }

  for (std::uint32_t g = 0; g < config_.num_gpus; ++g) {
    const PolicyStats& ps = gpus_[g]->rdma().policy().stats();
    if (g == 0) r.policy = gpus_[g]->rdma().policy().name();
    for (std::size_t i = 0; i < kNumCodecIds; ++i) {
      r.policy_stats.wire_counts[i] += ps.wire_counts[i];
      r.policy_stats.vote_wins[i] += ps.vote_wins[i];
    }
    r.policy_stats.sampled_transfers += ps.sampled_transfers;
    r.policy_stats.votes_taken += ps.votes_taken;
    r.policy_stats.degrade_events += ps.degrade_events;
    r.policy_stats.degraded_transfers += ps.degraded_transfers;
    r.policy_stats.bulk_transfers += ps.bulk_transfers;
    for (std::size_t i = 0; i < kNumBlockCodecIds; ++i) {
      r.policy_stats.block_wire_counts[i] += ps.block_wire_counts[i];
    }

    const PayloadPool& pool = gpus_[g]->rdma().payload_pool();
    r.pool_hits += pool.hits();
    r.pool_misses += pool.misses();
    r.bulk_pool_misses += pool.bulk_misses();

    const CacheStats v = gpus_[g]->l1v_stats();
    const CacheStats s = gpus_[g]->l1s_stats();
    const CacheStats l2 = gpus_[g]->l2_stats();
    auto acc = [](CacheStats& into, const CacheStats& from) {
      into.read_hits += from.read_hits;
      into.read_misses += from.read_misses;
      into.write_hits += from.write_hits;
      into.write_misses += from.write_misses;
    };
    acc(r.l1v, v);
    acc(r.l1s, s);
    acc(r.l2, l2);
  }
  return r;
}

RunResult run_workload(SystemConfig config, Workload& workload) {
  MultiGpuSystem system(std::move(config));
  return system.run(workload);
}

}  // namespace mgcomp
