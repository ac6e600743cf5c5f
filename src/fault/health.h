// Health monitoring: turns raw reliability-layer symptoms into link/GPU
// state with hysteresis, and exposes that state to the fabric and the
// collective layer.
//
// Per-link state machine (driven by RDMA timeouts/hard-fails as errors and
// completed transfers as successes):
//
//             errors >= suspect_after          errors >= down_after
//     UP ------------------------------> SUSPECT -----------------------> DOWN
//      ^                                    |                              |
//      |        one success                 |                              | probe (every
//      +------------------------------------+                              | probe_interval,
//      ^                                                                   | <= probe_budget)
//      |   successes >= up_after                                           v
//      +-------------------------------- RECOVERED <-----------------------+
//                                           |        probe finds wire alive
//                                           +--> DOWN again on any error (relapse)
//
// A DOWN link is probed on a bounded, deterministic schedule; when the
// budget runs out the link stays DOWN permanently and the probe chain ends,
// so `engine.run()` always terminates. GPU health is simpler: a fail-stop
// episode starts a missed-heartbeat chain (SUSPECT at the first miss, DOWN
// at `heartbeat_misses`), and DOWN is terminal — fail-stop GPUs do not come
// back. Transitions emit tracer instants and a `links_down` counter, and an
// optional on-change callback lets the fabric re-arbitrate stalled traffic
// the moment a link recovers or a peer is declared dead.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/engine.h"

namespace mgcomp {

class EpisodeScheduler;
class Tracer;

enum class HealthState : std::uint8_t { kUp, kSuspect, kDown, kRecovered };

[[nodiscard]] constexpr const char* to_string(HealthState s) noexcept {
  switch (s) {
    case HealthState::kUp: return "UP";
    case HealthState::kSuspect: return "SUSPECT";
    case HealthState::kDown: return "DOWN";
    case HealthState::kRecovered: return "RECOVERED";
  }
  return "?";
}

struct HealthParams {
  std::uint32_t suspect_after{1};  ///< consecutive errors UP -> SUSPECT
  std::uint32_t down_after{3};     ///< consecutive errors -> DOWN
  std::uint32_t up_after{4};       ///< consecutive successes RECOVERED -> UP
  Tick probe_interval{1u << 15};   ///< DOWN-link probe spacing
  std::uint32_t probe_budget{64};  ///< probes per DOWN epoch; then DOWN is final
  Tick heartbeat_interval{1u << 14};
  std::uint32_t heartbeat_misses{3};  ///< missed beats before a GPU is DOWN
};

struct HealthStats {
  std::uint64_t link_suspect{0};
  std::uint64_t link_down{0};
  std::uint64_t link_recovered{0};
  std::uint64_t link_up{0};  ///< SUSPECT/RECOVERED -> UP returns
  std::uint64_t gpu_suspect{0};
  std::uint64_t gpu_down{0};
  std::uint64_t probes_sent{0};
  std::uint64_t heartbeat_misses{0};

  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return link_suspect + link_down + link_recovered + link_up + gpu_suspect + gpu_down;
  }
};

/// Believed link/GPU health, fed by the reliability layer and consulted for
/// policy decisions (bus stall, port-based fabric route-around, queue
/// purges, ring shrink). Physical ground truth stays in the EpisodeScheduler; the
/// `wire_dead`/`endpoint_dead` passthroughs exist so the fabric has a single
/// dependency for both views.
class HealthMonitor {
 public:
  HealthMonitor(Engine& engine, std::uint32_t num_endpoints, HealthParams params,
                const EpisodeScheduler* oracle);

  // Detection inputs. Errors are RDMA timeouts and hard failures; successes
  // are completed reads/writes. Both are per remote peer.
  void on_link_error(EndpointId a, EndpointId b);
  void on_link_success(EndpointId a, EndpointId b);
  /// Episode scheduler: `e` stopped heartbeating at the current tick.
  void on_gpu_failstop(EndpointId e);

  // Believed state.
  [[nodiscard]] HealthState link_state(EndpointId a, EndpointId b) const noexcept {
    return links_[pair(a, b)].state;
  }
  [[nodiscard]] HealthState gpu_state(EndpointId e) const noexcept {
    return gpus_[e.value].state;
  }
  [[nodiscard]] bool link_down(EndpointId a, EndpointId b) const noexcept {
    return links_[pair(a, b)].state == HealthState::kDown;
  }
  [[nodiscard]] bool endpoint_down(EndpointId e) const noexcept {
    return gpus_[e.value].state == HealthState::kDown;
  }
  /// Usable for routing: link not believed DOWN and both ends believed alive.
  [[nodiscard]] bool link_usable(EndpointId a, EndpointId b) const noexcept {
    return !link_down(a, b) && !endpoint_down(a) && !endpoint_down(b);
  }

  // Physical ground truth (oracle passthrough; the fabric's delivery gate).
  [[nodiscard]] bool wire_dead(EndpointId a, EndpointId b) const noexcept;
  [[nodiscard]] bool endpoint_dead(EndpointId e) const noexcept;

  void set_tracer(Tracer* t) noexcept { tracer_ = t; }
  /// Invoked on DOWN/RECOVERED transitions so the fabric can re-arbitrate.
  void set_on_change(std::function<void()> cb) { on_change_ = std::move(cb); }

  [[nodiscard]] const HealthStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const HealthParams& params() const noexcept { return params_; }

  /// Multi-line report of every non-UP link/endpoint (and physically dead
  /// wires not yet detected), for the watchdog stall dump.
  [[nodiscard]] std::string dump() const;

 private:
  struct LinkHealth {
    HealthState state{HealthState::kUp};
    std::uint32_t errors{0};       ///< consecutive, while not DOWN
    std::uint32_t successes{0};    ///< consecutive, while RECOVERED
    std::uint32_t probes_left{0};  ///< remaining budget this DOWN epoch
    std::uint64_t epoch{0};        ///< bumped per DOWN entry; kills stale probes
  };
  struct GpuHealth {
    HealthState state{HealthState::kUp};
  };

  [[nodiscard]] std::size_t pair(EndpointId a, EndpointId b) const noexcept {
    const std::uint32_t lo = a.value < b.value ? a.value : b.value;
    const std::uint32_t hi = a.value < b.value ? b.value : a.value;
    return static_cast<std::size_t>(lo) * n_ + hi;
  }

  void enter_down(std::size_t idx);
  void enter_recovered(std::size_t idx);
  void schedule_probe(std::size_t idx);
  void probe(std::size_t idx, std::uint64_t epoch);
  void notify();
  void link_instant(const char* name, std::size_t idx);
  void emit_links_down_counter();

  Engine* engine_;
  std::uint32_t n_;
  HealthParams params_;
  const EpisodeScheduler* oracle_;
  std::vector<LinkHealth> links_;
  std::vector<GpuHealth> gpus_;
  HealthStats stats_;
  std::uint32_t links_down_now_{0};
  Tracer* tracer_{nullptr};
  std::function<void()> on_change_;
};

}  // namespace mgcomp
