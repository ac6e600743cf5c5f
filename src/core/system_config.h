// Top-level configuration of a simulated multi-GPU system.
//
// Defaults reproduce the paper's Table VII setup: 4 R9-Nano-class GPUs,
// a 20 B/cycle (160 Gb/s) shared bus at 1 GHz, 4 KB input buffers, pages
// interleaved over 32 memory controllers, and MCM-tier (1-2 pJ/b) fabric
// energy.
#pragma once

#include <cstdlib>
#include <string_view>

#include "adaptive/policy.h"
#include "compression/cost_model.h"
#include "fabric/bus.h"
#include "fabric/hier_fabric.h"
#include "fault/episodes.h"
#include "fault/fault_injector.h"
#include "fault/health.h"
#include "gpu/gpu.h"

namespace mgcomp {

/// Interconnect topology. The paper evaluates the shared bus; the switch
/// and the two-level hierarchical fabric are this repo's what-if
/// extensions, and both are HierFabric (kSwitch puts every GPU on one
/// node, whatever `SystemConfig::hier` says). kAuto (the default) resolves
/// to the bus unless the MGCOMP_TOPOLOGY environment variable overrides it
/// — tests and tools that depend on a specific fabric's timing pin one
/// explicitly.
enum class FabricKind : std::uint8_t { kAuto, kBus, kSwitch, kHier };

/// Parses a --topology / MGCOMP_TOPOLOGY spelling: "bus", "switch",
/// "hier" / "hier-fattree" (fat-tree trunks), "hier-torus". `graph` is
/// written only for the hier spellings.
[[nodiscard]] inline bool parse_topology(std::string_view s, FabricKind* kind,
                                         HierGraph* graph) noexcept {
  if (s == "bus") {
    *kind = FabricKind::kBus;
    return true;
  }
  if (s == "switch") {
    *kind = FabricKind::kSwitch;
    return true;
  }
  if (s == "hier" || s == "hier-fattree") {
    *kind = FabricKind::kHier;
    *graph = HierGraph::kFatTree;
    return true;
  }
  if (s == "hier-torus") {
    *kind = FabricKind::kHier;
    *graph = HierGraph::kTorus;
    return true;
  }
  return false;
}

/// Supported system sizes. The lower bound keeps the fabric non-trivial
/// (ring schedules need a peer); the upper bound is how far the machine
/// model has been validated — page interleaving, (hierarchical) ring
/// collectives and the energy tiers all stay meaningful up to 64 GPUs
/// (e.g. 16 nodes x 4).
inline constexpr std::uint32_t kMinGpus = 2;
inline constexpr std::uint32_t kMaxGpus = 64;

/// The fabric/topology a config actually runs with, after kAuto and the
/// MGCOMP_TOPOLOGY / MGCOMP_GPUS_PER_NODE environment overrides resolve.
struct ResolvedTopology {
  FabricKind fabric{FabricKind::kBus};
  /// Node shape; meaningful only when fabric == kHier.
  HierTopology hier{};
  [[nodiscard]] std::uint32_t nodes(std::uint32_t num_gpus) const noexcept {
    return fabric == FabricKind::kHier ? num_gpus / hier.gpus_per_node : 1;
  }
};

struct SystemConfig {
  /// Number of GPUs on the fabric, in [kMinGpus, kMaxGpus].
  std::uint32_t num_gpus{4};
  GpuParams gpu{};
  FabricKind fabric{FabricKind::kAuto};
  BusFabric::Params bus{};
  /// Node grouping and trunk oversubscription; consulted when the resolved
  /// fabric is kHier (simulate --topology hier --gpus-per-node N
  /// --internode-bw-ratio R). gpus_per_node must divide num_gpus when
  /// kHier is pinned explicitly.
  HierTopology hier{};
  FabricTier energy_tier{FabricTier::kInterDie};

  /// Per-sender compression policy; default is the no-compression baseline.
  PolicyFactory policy{make_no_compression_policy()};

  /// Re-compress every inter-GPU payload with all codecs (Tables V/VI).
  bool characterize{false};
  /// Record the first N payloads' entropy + per-codec sizes (Fig. 1).
  std::size_t trace_samples{0};

  /// Event-trace ring capacity (events). Non-zero attaches a Tracer to the
  /// fabric, every RDMA engine and every policy, and RunResult::trace_json
  /// carries the Chrome trace-event export. 0 (default) leaves every
  /// tracer pointer null — the run's event schedule and results are
  /// bit-identical to a build without the observability layer.
  std::size_t trace_events{0};

  /// Link-fault injection (reliability extension). All-zero rates (the
  /// default) build a lossless system identical in behavior to one without
  /// the reliability layer: no injector is attached to the fabric and no
  /// retransmission timers are armed.
  FaultParams fault{};
  /// Retransmission tuning; consulted when fault.any() or episodes exist.
  RetryParams retry{};
  /// Watchdog period in cycles: with faults enabled, a run that moves no
  /// fabric message for this long while requests are outstanding aborts
  /// with a diagnostic dump instead of spinning. 0 disables.
  Tick watchdog_interval{1u << 22};

  /// Scheduled fail-stop episodes (link-down windows, flaps, GPU
  /// fail-stop), typically from parse_fault_episodes(). Empty (the
  /// default) constructs no EpisodeScheduler and no HealthMonitor — the
  /// run's event schedule is bit-identical to a build without the
  /// fail-stop subsystem. Non-empty also arms the retransmission
  /// machinery, since timeouts are how dead wires are detected.
  std::vector<FaultEpisode> episodes{};
  /// Health state-machine tuning; consulted only when episodes is
  /// non-empty.
  HealthParams health{};

  /// Event-engine lanes. Kept only so existing callers that pin 1 still
  /// compile: the engine runs one heap on one thread, and MultiGpuSystem
  /// rejects any other value.
  std::uint32_t shards{1};

  /// True when any fault machinery (stochastic or fail-stop) is active.
  [[nodiscard]] bool reliability_enabled() const noexcept {
    return fault.any() || !episodes.empty();
  }

  /// The topology this config actually runs with. An explicit `fabric` pin
  /// wins unconditionally. kAuto resolves from MGCOMP_TOPOLOGY (so CI can
  /// sweep the whole suite across fabrics), fail-stop episode runs
  /// included. An env-selected hier topology must keep arbitrary suite
  /// configs valid: a MGCOMP_GPUS_PER_NODE that does not divide num_gpus
  /// falls back to a single node (pure crossbar) instead of failing the
  /// run.
  [[nodiscard]] ResolvedTopology resolved_topology() const noexcept {
    ResolvedTopology rt;
    rt.hier = hier;
    if (fabric != FabricKind::kAuto) {
      rt.fabric = fabric;
      return rt;
    }
    rt.fabric = FabricKind::kBus;
    if (const char* env = std::getenv("MGCOMP_TOPOLOGY")) {
      FabricKind k = FabricKind::kBus;
      HierGraph g = rt.hier.graph;
      if (parse_topology(env, &k, &g)) {
        rt.fabric = k;
        rt.hier.graph = g;
      }
    }
    if (rt.fabric == FabricKind::kHier) {
      if (const char* env = std::getenv("MGCOMP_GPUS_PER_NODE")) {
        const unsigned long v = std::strtoul(env, nullptr, 10);
        if (v >= 1 && v <= kMaxGpus) rt.hier.gpus_per_node = static_cast<std::uint32_t>(v);
      }
      if (rt.hier.gpus_per_node > num_gpus || num_gpus % rt.hier.gpus_per_node != 0) {
        rt.hier.gpus_per_node = num_gpus;  // single node keeps any config valid
      }
    }
    return rt;
  }
};

}  // namespace mgcomp
