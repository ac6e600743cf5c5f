// Abstract inter-GPU fabric interface.
//
// The paper models a single shared bus (Section VI-B); real multi-GPU
// parts are moving to switched fabrics (NVLink/NVSwitch-class). The bus
// (BusFabric) and the port-based fabric (HierFabric: a crossbar switch, or
// nodes of crossbars joined by trunks) implement this interface so the rest
// of the system — RDMA engines, CPU host, stats — is topology-agnostic and
// `bench_ablation` can compare them directly.
#pragma once

#include <functional>
#include <string>

#include "fabric/message.h"

namespace mgcomp {

struct BusStats;      // defined in fabric/bus.h; shared by all fabrics
class FaultInjector;  // defined in fault/fault_injector.h
class HealthMonitor;  // defined in fault/health.h
class Tracer;         // defined in obs/tracer.h

class Fabric {
 public:
  using DeliverFn = std::function<void(Message&&)>;

  virtual ~Fabric() = default;

  /// Registers an endpoint; `is_gpu` controls inter-GPU accounting.
  virtual EndpointId add_endpoint(std::string name, bool is_gpu, DeliverFn deliver) = 0;

  /// Name given to `ep` at registration (track labels, diagnostics).
  [[nodiscard]] virtual const std::string& endpoint_name(EndpointId ep) const = 0;

  /// Installs an event tracer recording per-message transmission spans and
  /// occupancy counters; null (the default) disables tracing at the cost
  /// of one branch per message.
  virtual void set_tracer(Tracer* tracer) noexcept { (void)tracer; }

  /// Queues `msg` for transmission from `msg.src` to `msg.dst`.
  virtual void send(Message msg) = 0;

  /// Frees `bytes` of input-buffer space at `ep` after the receiver has
  /// finished processing a delivered message.
  virtual void consume(EndpointId ep, std::size_t bytes) = 0;

  [[nodiscard]] virtual const BusStats& stats() const noexcept = 0;

  /// Installs a link-fault injector consulted once per completed
  /// transmission; null (the default) models a lossless fabric.
  virtual void set_fault_injector(FaultInjector* injector) noexcept = 0;

  /// Installs the fail-stop health view: physically dead wires/endpoints
  /// (oracle) gate delivery, and believed-DOWN state drives arbitration
  /// (bus: stall-with-deadline; port-based fabric: route-around on any
  /// node count). Null (the default) models a fabric with no fail-stop
  /// domains.
  virtual void set_health_monitor(HealthMonitor* health) noexcept = 0;

  /// Health transition hook: re-arbitrates traffic stalled behind a link
  /// that just changed state (recovered, or a peer declared dead).
  virtual void on_health_change() = 0;

  // Introspection for watchdog diagnostics: how full each endpoint's
  // buffers are when a run stops making progress.
  [[nodiscard]] virtual std::size_t endpoint_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t in_buffer_bytes(EndpointId ep) const noexcept = 0;
  [[nodiscard]] virtual std::size_t out_queue_depth(EndpointId ep) const noexcept = 0;
};

}  // namespace mgcomp
