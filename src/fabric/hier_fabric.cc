#include "fabric/hier_fabric.h"

#include <algorithm>

#include "common/assert.h"
#include "fault/fault_injector.h"
#include "fault/health.h"
#include "obs/tracer.h"
#include "sim/callback.h"

namespace mgcomp {

HierFabric::HierFabric(Engine& engine, Params params)
    : engine_(&engine), params_(params) {
  MGCOMP_CHECK_MSG(params_.topo.gpus_per_node >= 1,
                   "HierFabric: gpus_per_node must be >= 1");
  MGCOMP_CHECK_MSG(params_.topo.internode_bw_ratio >= 1,
                   "HierFabric: internode_bw_ratio must be >= 1");
  MGCOMP_CHECK_MSG(params_.bytes_per_cycle >= 1, "HierFabric: bytes_per_cycle must be >= 1");
  trunk_bytes_per_cycle_ =
      std::max<std::uint32_t>(params_.bytes_per_cycle / params_.topo.internode_bw_ratio, 1);
}

EndpointId HierFabric::add_endpoint(std::string name, bool is_gpu, DeliverFn deliver) {
  MGCOMP_CHECK_MSG(!links_built_,
                   "HierFabric: endpoints must all register before traffic flows");
  Endpoint ep;
  ep.name = std::move(name);
  ep.deliver = std::move(deliver);
  ep.is_gpu = is_gpu;
  // GPUs fill nodes in registration order; the CPU host (and any other
  // non-GPU endpoint) shares node 0 with the first GPU group.
  ep.node = is_gpu ? registered_gpus_ / params_.topo.gpus_per_node : 0;
  if (is_gpu) ++registered_gpus_;
  num_nodes_ = std::max(num_nodes_, ep.node + 1);
  endpoints_.push_back(std::move(ep));
  return EndpointId{static_cast<std::uint32_t>(endpoints_.size() - 1)};
}

void HierFabric::build_links() {
  links_built_ = true;
  if (params_.topo.graph == HierGraph::kFatTree) {
    links_.assign(static_cast<std::size_t>(num_nodes_) * 2, TrunkLink{});
    return;
  }
  // Near-square grid: the largest divisor of N that is <= sqrt(N) becomes
  // the row count (prime N degenerates to a 1 x N ring, which is still a
  // valid torus). Four directed links per node: +x, -x, +y, -y.
  std::uint32_t rows = 1;
  for (std::uint32_t r = 1; r * r <= num_nodes_; ++r) {
    if (num_nodes_ % r == 0) rows = r;
  }
  torus_cols_ = num_nodes_ / rows;
  links_.assign(static_cast<std::size_t>(num_nodes_) * 4, TrunkLink{});
}

std::vector<std::uint32_t> HierFabric::route(std::uint32_t src_node,
                                             std::uint32_t dst_node) const {
  std::vector<std::uint32_t> hops;
  if (src_node == dst_node) return hops;
  if (params_.topo.graph == HierGraph::kFatTree) {
    // Up into the non-blocking spine, down to the destination node.
    hops.push_back(src_node * 2);
    hops.push_back(dst_node * 2 + 1);
    return hops;
  }
  // Dimension-order (x then y) routing with the shortest wrap direction
  // (ties go +). One directed link per grid step, owned by the node the
  // step leaves from.
  const std::uint32_t cols = torus_cols_;
  const std::uint32_t rows = num_nodes_ / cols;
  std::uint32_t x = src_node % cols;
  std::uint32_t y = src_node / cols;
  const std::uint32_t dx = dst_node % cols;
  const std::uint32_t dy = dst_node / cols;
  while (x != dx) {
    const std::uint32_t fwd = (dx + cols - x) % cols;   // steps going +x
    const bool plus = fwd <= cols - fwd;
    const std::uint32_t node = y * cols + x;
    hops.push_back(node * 4 + (plus ? 0u : 1u));
    x = plus ? (x + 1) % cols : (x + cols - 1) % cols;
  }
  while (y != dy) {
    const std::uint32_t fwd = (dy + rows - y) % rows;
    const bool plus = fwd <= rows - fwd;
    const std::uint32_t node = y * cols + x;
    hops.push_back(node * 4 + (plus ? 2u : 3u));
    y = plus ? (y + 1) % rows : (y + rows - 1) % rows;
  }
  return hops;
}

std::uint32_t HierFabric::trunk_hops(std::uint32_t node_a, std::uint32_t node_b) {
  finalize_links();
  return static_cast<std::uint32_t>(route(node_a, node_b).size());
}

void HierFabric::send(Message msg) {
  MGCOMP_CHECK(msg.src.value < endpoints_.size());
  MGCOMP_CHECK(msg.dst.value < endpoints_.size());
  MGCOMP_CHECK_MSG(msg.src != msg.dst, "loopback messages never touch the fabric");
  finalize_links();
  msg.crc = message_crc(msg);  // link-layer integrity stamp (sender NIC)
  const std::size_t src = msg.src.value;
  endpoints_[src].out.push_back(std::move(msg));
  stats_.max_out_queue_depth =
      std::max(stats_.max_out_queue_depth, endpoints_[src].out.size());
  pump(src);
}

void HierFabric::consume(EndpointId id, std::size_t bytes) {
  Endpoint& ep = endpoints_[id.value];
  MGCOMP_CHECK_MSG(ep.in_bytes >= bytes, "input-buffer release underflow");
  ep.in_bytes -= bytes;
  if (tracer_ != nullptr) {
    tracer_->counter(endpoint_track(id.value), "in_buffer_bytes",
                     static_cast<double>(ep.in_bytes));
  }
  // Any source whose head-of-line message targets this endpoint may now
  // proceed.
  for (std::size_t s = 0; s < endpoints_.size(); ++s) {
    if (endpoints_[s].head_blocked) pump(s);
  }
}

void HierFabric::on_health_change() {
  for (std::size_t s = 0; s < endpoints_.size(); ++s) pump(s);
}

std::uint32_t HierFabric::pick_via(std::uint32_t src, std::uint32_t dst) const {
  for (std::uint32_t m = 0; m < endpoints_.size(); ++m) {
    if (m == src || m == dst) continue;
    const EndpointId mid{m};
    if (health_->endpoint_down(mid)) continue;
    if (!health_->link_usable(EndpointId{src}, mid)) continue;
    if (!health_->link_usable(mid, EndpointId{dst})) continue;
    return m;
  }
  return kDirect;
}

void HierFabric::purge_undeliverable(std::size_t idx) {
  Endpoint& src = endpoints_[idx];
  const bool src_dead = health_->endpoint_dead(EndpointId{static_cast<std::uint32_t>(idx)});
  while (!src.out.empty() &&
         (src_dead || health_->endpoint_down(src.out.front().dst))) {
    src.out.pop_front();
    ++stats_.discarded_to_dead;
    if (tracer_ != nullptr) {
      tracer_->instant(endpoint_track(static_cast<std::uint32_t>(idx)), "discard_to_dead",
                       "fault");
    }
  }
}

void HierFabric::pump(std::size_t src_idx) {
  Endpoint& src = endpoints_[src_idx];
  src.head_blocked = false;
  // Launch as many queued transfers as fit; port and trunk reservations
  // serialize them in time, so scheduling several ahead is safe and keeps
  // the event count at one per message.
  while (!src.out.empty()) {
    if (health_ != nullptr) {
      purge_undeliverable(src_idx);
      if (src.out.empty()) return;
    }
    const Message& head = src.out.front();
    Endpoint& dst = endpoints_[head.dst.value];
    // Same jumbo-grant rule as the bus: oversized bulk messages are
    // admitted only into an empty input buffer.
    if (dst.in_bytes + head.wire_bytes() > params_.input_buffer_bytes &&
        !(dst.in_bytes == 0 && head.wire_bytes() > params_.input_buffer_bytes)) {
      src.head_blocked = true;  // wake on consume()
      return;
    }

    // Route-around: a head targeting a believed-DOWN link detours through
    // an intermediate endpoint when one has believed-usable links to both
    // sides. The detour is modeled as doubled serialization on every
    // segment of the direct route (two wire traversals); with no alternate
    // the head stalls and on_health_change() wakes it.
    std::uint32_t via = kDirect;
    Tick cycle_factor = 1;
    if (health_ != nullptr && health_->link_down(head.src, head.dst)) {
      via = pick_via(head.src.value, head.dst.value);
      if (via == kDirect) {
        src.head_blocked = true;  // wake on recovery or peer death
        return;
      }
      cycle_factor = 2;
    }
    const std::size_t wire = head.wire_bytes();
    dst.in_bytes += wire;

    const Tick c_intra = intra_cycles(wire) * cycle_factor;
    Tick start = 0;
    Tick arrive = 0;
    std::uint32_t hops = 0;
    if (src.node == dst.node) {
      // Intra-node: one crossbar traversal occupying both ports at once.
      start = std::max({engine_->now(), src.out_port_free, dst.in_port_free});
      src.out_port_free = start + c_intra;
      dst.in_port_free = start + c_intra;
      stats_.busy_cycles += c_intra;
      stats_.record_busy(start, c_intra);
      arrive = start + c_intra;
    } else {
      // Inter-node, store-and-forward: source out-port segment, each trunk
      // link on the route in turn (queueing behind its earlier traffic),
      // then the destination in-port segment. Every reservation starts at
      // max(previous segment's end, the resource's free tick), so frees
      // only move forward.
      const Tick c_trunk = trunk_cycles(wire) * cycle_factor;
      start = std::max(engine_->now(), src.out_port_free);
      src.out_port_free = start + c_intra;
      stats_.busy_cycles += c_intra;
      stats_.record_busy(start, c_intra);
      arrive = start + c_intra;
      for (const std::uint32_t link : route(src.node, dst.node)) {
        const Tick s = std::max(arrive, links_[link].free);
        links_[link].free = s + c_trunk;
        stats_.trunk_busy_cycles += c_trunk;
        arrive = s + c_trunk;
        ++hops;
      }
      const Tick in_start = std::max(arrive, dst.in_port_free);
      dst.in_port_free = in_start + c_intra;
      stats_.busy_cycles += c_intra;
      stats_.record_busy(in_start, c_intra);
      arrive = in_start + c_intra;
    }
    if (via != kDirect) {
      // The second traversal of each segment is the detour's extra cost.
      ++stats_.rerouted_messages;
      stats_.reroute_extra_cycles +=
          intra_cycles(wire) * (hops == 0 ? 1 : 2) + trunk_cycles(wire) * hops;
      if (tracer_ != nullptr) {
        tracer_->instant(kFabricTrack, "reroute", "fault", via);
      }
    }
    if (tracer_ != nullptr) {
      // Recorded at launch, where both ends are known: the span covers the
      // whole time in the fabric (out port, trunks or a detour's second
      // traversal, in port), and untraced runs carry no start tick.
      tracer_->span(kFabricTrack, msg_type_name(head.type).data(), "fabric", start, arrive,
                    wire);
    }

    Message msg = std::move(src.out.front());
    src.out.pop_front();
    auto on_arrival = [this, msg = std::move(msg), hops, via]() mutable {
      complete(std::move(msg), hops, via);
    };
    static_assert(sizeof(on_arrival) <= InlineFunction::kInlineBytes,
                  "the per-message arrival event must fit the engine's inline callback");
    engine_->schedule_at(arrive, std::move(on_arrival));
  }
}

void HierFabric::complete(Message msg, std::uint32_t hops, std::uint32_t via) {
  stats_.record_pair(msg.src, msg.dst, endpoints_.size(), msg.wire_bytes());
  const bool inter_gpu =
      endpoints_[msg.src.value].is_gpu && endpoints_[msg.dst.value].is_gpu;
  stats_.record_transmit(msg, inter_gpu);
  if (hops > 0) {
    ++stats_.trunk_messages;
    stats_.trunk_wire_bytes += msg.wire_bytes();
    stats_.trunk_hops += hops;
  }

  if (tracer_ != nullptr) {
    const Tick end = engine_->now();
    tracer_->counter(
        kFabricTrack, "utilization",
        stats_.utilization(static_cast<std::size_t>(end / BusStats::kUtilizationBucketCycles)));
  }

  // Fail-stop gate: the transfer is lost if any wire it actually traversed
  // (direct, or both detour hops) was dead, or if either end died. A detour
  // hop through a dead intermediate is lost too.
  if (health_ != nullptr) {
    bool lost = health_->endpoint_dead(msg.dst);
    if (via == kDirect) {
      lost = lost || health_->wire_dead(msg.src, msg.dst);
    } else {
      const EndpointId mid{via};
      lost = lost || health_->wire_dead(msg.src, mid) || health_->wire_dead(mid, msg.dst) ||
             health_->endpoint_dead(mid);
    }
    if (lost) {
      ++stats_.down_link_drops;
      stats_.down_link_dropped_bytes += msg.wire_bytes();
      if (tracer_ != nullptr) {
        tracer_->instant(kFabricTrack, "episode_drop", "fault", msg.wire_bytes());
      }
      consume(msg.dst, msg.wire_bytes());  // releases buffer, wakes blocked sources
      return;
    }
  }

  // Link faults apply per completed transfer, exactly as on the bus;
  // delivered stats accrue only for messages that pass the drop gate.
  if (injector_ != nullptr) {
    const FaultDecision fd = injector_->on_transmit(msg);
    if (fd.drop) {
      if (tracer_ != nullptr) {
        tracer_->instant(kFabricTrack, "drop", "fault", msg.wire_bytes());
      }
      consume(msg.dst, msg.wire_bytes());  // releases buffer, wakes blocked sources
      return;
    }
    if (fd.duplicate) {
      Message copy = msg;
      send(std::move(copy));
    }
    if (fd.flip_bit >= 0) {
      FaultInjector::corrupt(msg, static_cast<std::uint32_t>(fd.flip_bit));
    }
    if (fd.extra_delay > 0) {
      stats_.record_delivered(msg, inter_gpu);
      engine_->schedule_in(fd.extra_delay, [this, msg = std::move(msg)]() mutable {
        endpoints_[msg.dst.value].deliver(std::move(msg));
      });
      return;
    }
  }

  stats_.record_delivered(msg, inter_gpu);
  endpoints_[msg.dst.value].deliver(std::move(msg));
}

}  // namespace mgcomp
