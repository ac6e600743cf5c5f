// Port-based inter-GPU fabric: nodes of GPUs joined by trunks. The crossbar
// switch is the one-node case.
//
// GPUs are grouped into nodes of `gpus_per_node` in registration order
// (non-GPU endpoints — the CPU host — attach to node 0). Inside a node the
// fabric is an ideal (NVSwitch-like) crossbar: each endpoint owns one
// output and one input port serializing at `bytes_per_cycle`, and disjoint
// pairs transfer concurrently. Per-source queues are FIFO, so a head-of-line
// message whose destination buffer is full blocks that source (but no
// other). Between nodes, messages additionally cross one or more inter-node
// trunk links whose rate is `bytes_per_cycle / internode_bw_ratio` — the
// oversubscription regime where adaptive link compression pays off most
// (gZCCL-style hierarchy-aware collectives are built on exactly this
// asymmetry). With `gpus_per_node` >= the GPU count there are no trunks:
// that is the switch fabric (FabricKind::kSwitch), whose aggregate
// bandwidth scales with endpoint count, unlike the paper's shared bus.
//
// The switch graph joining the nodes is pluggable:
//   * kFatTree — every node has one up-link to a non-blocking spine and one
//     down-link from it; any inter-node route is exactly two trunk hops
//     (src node's up-link, dst node's down-link).
//   * kTorus — nodes form a near-square 2D grid with wraparound links;
//     dimension-order (x then y) routing takes the shortest wrap direction,
//     one trunk hop per grid step, store-and-forward at each hop.
//
// Transfers are store-and-forward: a message occupies its source's output
// port for ceil(W / intra_rate) cycles, then each trunk link on its route
// for ceil(W / trunk_rate) cycles in sequence (queueing behind earlier
// traffic on that link), then the destination's input port. Inside a node
// the two ports are held together for one ceil(W / intra_rate) window. One
// engine event per message fires at final arrival.
//
// Fail-stop episodes (a HealthMonitor is installed): queued messages to or
// from a dead GPU are purged, and a message whose endpoint pair is believed
// DOWN detours through the lowest endpoint with believed-usable links to
// both sides. A detour pays twice the serialization of every segment of its
// direct route (out port, each trunk link, in port); the via endpoint's own
// ports and trunks are not reserved. With no detour available the head
// stalls until a health change re-pumps it. The delivery gate then loses a
// message whose wires (direct, or both detour hops) or endpoints were
// physically dead.
#pragma once

#include <deque>
#include <vector>

#include "fabric/bus.h"  // BusStats
#include "fabric/fabric.h"
#include "sim/engine.h"

namespace mgcomp {

/// Inter-node switch graph of the hierarchical fabric.
enum class HierGraph : std::uint8_t { kFatTree, kTorus };

/// Node-level shape of a hierarchical topology. Lives outside HierFabric so
/// SystemConfig and command-line parsing can speak it without pulling in
/// the fabric implementation.
struct HierTopology {
  /// GPUs per node, assigned in endpoint-registration order. Must divide
  /// the GPU count (MultiGpuSystem enforces this for explicit configs).
  std::uint32_t gpus_per_node{4};
  /// Trunk oversubscription: trunk rate = bytes_per_cycle / this. 1 models
  /// full-bandwidth trunks; the paper's interesting regime is 4:1.
  std::uint32_t internode_bw_ratio{4};
  HierGraph graph{HierGraph::kFatTree};
};

class HierFabric final : public Fabric {
 public:
  struct Params {
    std::uint32_t bytes_per_cycle{20};  ///< intra-node, per port per direction
    std::size_t input_buffer_bytes{4096};
    HierTopology topo{};
  };

  HierFabric(Engine& engine, Params params);

  EndpointId add_endpoint(std::string name, bool is_gpu, DeliverFn deliver) override;

  void send(Message msg) override;
  void consume(EndpointId ep, std::size_t bytes) override;

  [[nodiscard]] const BusStats& stats() const noexcept override { return stats_; }
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

  /// Node an endpoint belongs to (GPU g -> node g / gpus_per_node; the CPU
  /// and any other non-GPU endpoint attach to node 0).
  [[nodiscard]] std::uint32_t node_of(EndpointId ep) const {
    return endpoints_.at(ep.value).node;
  }
  /// Number of nodes the registered endpoints span.
  [[nodiscard]] std::uint32_t node_count() const noexcept { return num_nodes_; }
  /// Trunk hops an (a -> b) inter-node message traverses; 0 when a == b.
  /// Finalizes the link graph on first use, like send().
  [[nodiscard]] std::uint32_t trunk_hops(std::uint32_t node_a, std::uint32_t node_b);

 private:
  struct Endpoint {
    std::string name;
    DeliverFn deliver;
    std::deque<Message> out;
    Tick out_port_free{0};
    Tick in_port_free{0};
    std::size_t in_bytes{0};
    std::uint32_t node{0};
    bool is_gpu{false};
    bool head_blocked{false};  ///< head-of-line waiting for dst buffer space
  };

  /// One directed trunk link; `free` is when its wire next idles.
  struct TrunkLink {
    Tick free{0};
  };

  /// Sentinel for `via`: the message took its direct route.
  static constexpr std::uint32_t kDirect = 0xffffffffu;

  /// Builds the trunk-link table once the endpoint set (and therefore the
  /// node count) is complete: on the first send() or trunk_hops().
  void finalize_links() {
    if (!links_built_) build_links();
  }
  void build_links();

  /// Directed trunk-link indices an inter-node message traverses, in order.
  [[nodiscard]] std::vector<std::uint32_t> route(std::uint32_t src_node,
                                                 std::uint32_t dst_node) const;

  /// Tries to launch transfers from `src`'s queue head.
  void pump(std::size_t src);
  /// Fires at arrival. `hops` counts the trunk links the message crossed;
  /// `via` names the detour endpoint (or kDirect), so the delivery gate
  /// checks the wires actually traversed.
  void complete(Message msg, std::uint32_t hops, std::uint32_t via);

  /// Picks a detour endpoint for a believed-DOWN src->dst link: the lowest
  /// endpoint whose links to both sides are believed usable. kDirect if no
  /// alternate path exists.
  [[nodiscard]] std::uint32_t pick_via(std::uint32_t src, std::uint32_t dst) const;

  /// Pops and counts head-of-queue messages that can never be delivered.
  void purge_undeliverable(std::size_t idx);

  [[nodiscard]] Tick intra_cycles(std::size_t wire_bytes) const noexcept {
    return std::max<Tick>(
        (wire_bytes + params_.bytes_per_cycle - 1) / params_.bytes_per_cycle, 1);
  }
  [[nodiscard]] Tick trunk_cycles(std::size_t wire_bytes) const noexcept {
    return std::max<Tick>((wire_bytes + trunk_bytes_per_cycle_ - 1) / trunk_bytes_per_cycle_,
                          1);
  }

  Engine* engine_;
  Params params_;
  std::uint32_t trunk_bytes_per_cycle_;
  std::vector<Endpoint> endpoints_;
  std::uint32_t registered_gpus_{0};
  std::uint32_t num_nodes_{1};
  bool links_built_{false};
  /// Fat-tree: 2 links per node (node*2 = up, node*2+1 = down).
  /// Torus: 4 links per node (node*4 + direction, +x/-x/+y/-y).
  std::vector<TrunkLink> links_;
  std::uint32_t torus_cols_{1};  ///< grid width; rows = num_nodes_ / cols
  BusStats stats_;
  FaultInjector* injector_{nullptr};
  HealthMonitor* health_{nullptr};
  Tracer* tracer_{nullptr};
};

}  // namespace mgcomp
