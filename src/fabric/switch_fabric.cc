#include "fabric/switch_fabric.h"

#include <algorithm>

#include "common/assert.h"
#include "fault/fault_injector.h"
#include "fault/health.h"
#include "obs/tracer.h"

namespace mgcomp {

void SwitchFabric::send(Message msg) {
  MGCOMP_CHECK(msg.src.value < endpoints_.size());
  MGCOMP_CHECK(msg.dst.value < endpoints_.size());
  MGCOMP_CHECK_MSG(msg.src != msg.dst, "loopback messages never touch the fabric");
  msg.crc = message_crc(msg);  // link-layer integrity stamp (sender NIC)
  const std::size_t src = msg.src.value;
  endpoints_[src].out.push_back(std::move(msg));
  stats_.max_out_queue_depth =
      std::max(stats_.max_out_queue_depth, endpoints_[src].out.size());
  pump(src);
}

void SwitchFabric::consume(EndpointId id, std::size_t bytes) {
  Endpoint& ep = endpoints_[id.value];
  MGCOMP_CHECK_MSG(ep.in_bytes >= bytes, "input-buffer release underflow");
  ep.in_bytes -= bytes;
  if (tracer_ != nullptr) {
    tracer_->counter(endpoint_track(id.value), "in_buffer_bytes",
                     static_cast<double>(ep.in_bytes));
  }
  // Any source whose head-of-line message targets this endpoint may now
  // proceed. Endpoint counts are tiny (CPU + a few GPUs), so scan all.
  for (std::size_t s = 0; s < endpoints_.size(); ++s) {
    if (endpoints_[s].head_blocked) pump(s);
  }
}

void SwitchFabric::on_health_change() {
  for (std::size_t s = 0; s < endpoints_.size(); ++s) pump(s);
}

std::uint32_t SwitchFabric::pick_via(std::uint32_t src, std::uint32_t dst) const {
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

void SwitchFabric::purge_undeliverable(std::size_t idx) {
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

void SwitchFabric::pump(std::size_t src_idx) {
  Endpoint& src = endpoints_[src_idx];
  src.head_blocked = false;
  // Launch as many queued transfers as fit; port reservations serialize
  // them in time, so scheduling several ahead is safe and keeps the event
  // count at one per message.
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
    // sides. The detour is modeled as doubled serialization on the ports we
    // already track (two wire traversals); with no alternate the head
    // stalls and on_health_change() wakes it.
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
    dst.in_bytes += head.wire_bytes();

    const Tick start = std::max({engine_->now(), src.out_port_free, dst.in_port_free});
    const Tick base_cycles = std::max<Tick>(
        (head.wire_bytes() + params_.bytes_per_cycle - 1) / params_.bytes_per_cycle, 1);
    const Tick cycles = base_cycles * cycle_factor;
    src.out_port_free = start + cycles;
    dst.in_port_free = start + cycles;
    stats_.busy_cycles += cycles;
    stats_.record_busy(start, cycles);
    if (via != kDirect) {
      ++stats_.rerouted_messages;
      stats_.reroute_extra_cycles += cycles - base_cycles;
      if (tracer_ != nullptr) {
        tracer_->instant(kFabricTrack, "reroute", "fault", via);
      }
    }

    Message msg = std::move(src.out.front());
    src.out.pop_front();
    engine_->schedule_at(start + cycles, [this, msg = std::move(msg), via]() mutable {
      complete(std::move(msg), via);
    });
  }
}

void SwitchFabric::complete(Message msg, std::uint32_t via) {
  stats_.record_pair(msg.src, msg.dst, endpoints_.size(), msg.wire_bytes());
  const bool inter_gpu =
      endpoints_[msg.src.value].is_gpu && endpoints_[msg.dst.value].is_gpu;
  stats_.record_transmit(msg, inter_gpu);

  if (tracer_ != nullptr) {
    const Tick end = engine_->now();
    const Tick cycles = std::max<Tick>(
        (msg.wire_bytes() + params_.bytes_per_cycle - 1) / params_.bytes_per_cycle, 1);
    tracer_->span(kFabricTrack, msg_type_name(msg.type).data(), "fabric", end - cycles, end,
                  msg.wire_bytes());
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

  // Link faults apply per completed transfer, exactly as on the shared bus;
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
