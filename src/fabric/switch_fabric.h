// Switched (crossbar) inter-GPU fabric.
//
// Each endpoint has one output port and one input port, each serializing
// at `bytes_per_cycle`; distinct source/destination pairs transfer
// concurrently (an NVSwitch-like ideal crossbar with no internal
// contention). A message occupies its source's output port and its
// destination's input port for ceil(wire/B) cycles starting when both are
// free; per-source queues are FIFO, so a head-of-line message whose
// destination buffer is full blocks that source (but no other).
//
// Compared to the paper's shared bus at the same per-port rate, aggregate
// bandwidth scales with endpoint count — `bench_ablation` uses this to
// show how the value of link compression depends on fabric provisioning.
#pragma once

#include <deque>
#include <vector>

#include "common/assert.h"
#include "fabric/bus.h"  // BusStats
#include "fabric/fabric.h"
#include "sim/engine.h"

namespace mgcomp {

class SwitchFabric final : public Fabric {
 public:
  struct Params {
    std::uint32_t bytes_per_cycle{20};       ///< per port, each direction
    std::size_t input_buffer_bytes{4096};
  };

  SwitchFabric(Engine& engine, Params params) : engine_(&engine), params_(params) {
    MGCOMP_CHECK_MSG(params_.bytes_per_cycle >= 1,
                     "SwitchFabric: bytes_per_cycle must be >= 1");
  }

  EndpointId add_endpoint(std::string name, bool is_gpu, DeliverFn deliver) override {
    endpoints_.push_back(Endpoint{std::move(name), std::move(deliver), {}, 0, 0, 0, is_gpu});
    return EndpointId{static_cast<std::uint32_t>(endpoints_.size() - 1)};
  }

  void send(Message msg) override;
  void consume(EndpointId ep, std::size_t bytes) override;

  [[nodiscard]] const BusStats& stats() const noexcept override { return stats_; }
  [[nodiscard]] std::size_t num_endpoints() const noexcept { return endpoints_.size(); }
  [[nodiscard]] const std::string& endpoint_name(EndpointId ep) const override {
    return endpoints_.at(ep.value).name;
  }

  void set_fault_injector(FaultInjector* injector) noexcept override {
    injector_ = injector;
  }
  void set_health_monitor(HealthMonitor* health) noexcept override { health_ = health; }
  /// Re-pump every source: a recovered link unblocks stalled heads, a dead
  /// peer lets them be purged.
  void on_health_change() override;
  void set_tracer(Tracer* tracer) noexcept override { tracer_ = tracer; }
  [[nodiscard]] std::size_t endpoint_count() const noexcept override {
    return endpoints_.size();
  }
  [[nodiscard]] std::size_t in_buffer_bytes(EndpointId ep) const noexcept override {
    return endpoints_[ep.value].in_bytes;
  }
  [[nodiscard]] std::size_t out_queue_depth(EndpointId ep) const noexcept override {
    return endpoints_[ep.value].out.size();
  }

 private:
  struct Endpoint {
    std::string name;
    DeliverFn deliver;
    std::deque<Message> out;
    Tick out_port_free{0};
    Tick in_port_free{0};
    std::size_t in_bytes{0};
    bool is_gpu{false};
    bool head_blocked{false};  ///< head-of-line waiting for dst buffer space
  };

  /// Sentinel for `via`: the message took the direct src->dst wire.
  static constexpr std::uint32_t kDirect = 0xffffffffu;

  /// Tries to launch transfers from `src`'s queue head.
  void pump(std::size_t src);
  /// `via` names the intermediate endpoint of a route-around detour (or
  /// kDirect); the delivery gate checks the wires actually traversed.
  void complete(Message msg, std::uint32_t via);

  /// Picks a detour endpoint for a believed-DOWN src->dst link: the lowest
  /// endpoint whose links to both sides are believed usable. kDirect if no
  /// alternate path exists.
  [[nodiscard]] std::uint32_t pick_via(std::uint32_t src, std::uint32_t dst) const;

  /// Pops and counts head-of-queue messages that can never be delivered.
  void purge_undeliverable(std::size_t idx);

  Engine* engine_;
  Params params_;
  std::vector<Endpoint> endpoints_;
  BusStats stats_;
  FaultInjector* injector_{nullptr};
  HealthMonitor* health_{nullptr};
  Tracer* tracer_{nullptr};
};

}  // namespace mgcomp
