#include "fabric/bus.h"

#include <algorithm>

#include "common/assert.h"
#include "fault/fault_injector.h"
#include "fault/health.h"
#include "obs/tracer.h"

namespace mgcomp {

void BusFabric::send(Message msg) {
  MGCOMP_CHECK(msg.src.value < endpoints_.size());
  MGCOMP_CHECK(msg.dst.value < endpoints_.size());
  MGCOMP_CHECK_MSG(msg.src != msg.dst, "loopback messages never touch the fabric");
  msg.crc = message_crc(msg);  // link-layer integrity stamp (sender NIC)
  Endpoint& ep = endpoints_[msg.src.value];
  ep.out_bytes += msg.wire_bytes();
  ep.out.push_back(std::move(msg));
  stats_.max_out_queue_depth = std::max(stats_.max_out_queue_depth, ep.out.size());
  kick();
}

void BusFabric::consume(EndpointId id, std::size_t bytes) {
  Endpoint& ep = endpoints_[id.value];
  MGCOMP_CHECK_MSG(ep.in_bytes >= bytes, "input-buffer release underflow");
  ep.in_bytes -= bytes;
  if (tracer_ != nullptr) {
    tracer_->counter(endpoint_track(id.value), "in_buffer_bytes",
                     static_cast<double>(ep.in_bytes));
  }
  // Freed space may unblock a sender whose head message targets this
  // endpoint.
  kick();
}

void BusFabric::purge_undeliverable(std::size_t idx) {
  Endpoint& src = endpoints_[idx];
  const bool src_dead = health_->endpoint_dead(EndpointId{static_cast<std::uint32_t>(idx)});
  while (!src.out.empty() &&
         (src_dead || health_->endpoint_down(src.out.front().dst))) {
    src.out_bytes -= src.out.front().wire_bytes();
    src.out.pop_front();
    ++stats_.discarded_to_dead;
    if (tracer_ != nullptr) {
      tracer_->instant(endpoint_track(static_cast<std::uint32_t>(idx)), "discard_to_dead",
                       "fault");
    }
  }
}

void BusFabric::kick() {
  if (busy_) return;

  // Round-robin scan: first endpoint (starting after the last granted one)
  // whose head-of-queue message fits in its destination's input buffer.
  const std::size_t n = endpoints_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = (rr_next_ + i) % n;
    Endpoint& src = endpoints_[idx];
    if (health_ != nullptr) purge_undeliverable(idx);
    if (src.out.empty()) continue;
    const Message& head = src.out.front();
    // Stall-with-deadline: a head targeting a believed-DOWN link keeps its
    // slot until the link recovers (on_health_change re-kicks) or the
    // requester's retry budget / the watchdog gives up on it.
    if (health_ != nullptr && health_->link_down(head.src, head.dst)) continue;
    Endpoint& dst = endpoints_[head.dst.value];
    // Jumbo grant: a bulk message can exceed the whole input buffer; it is
    // admitted only into an EMPTY buffer (store-and-forward of one jumbo at
    // a time), so line traffic keeps the exact credit-based admission.
    if (dst.in_bytes + head.wire_bytes() > params_.input_buffer_bytes &&
        !(dst.in_bytes == 0 && head.wire_bytes() > params_.input_buffer_bytes)) {
      continue;
    }

    // Grant: reserve destination buffer now so no later grant oversubscribes
    // it, and occupy the bus for the serialization time.
    dst.in_bytes += head.wire_bytes();
    in_flight_ = std::move(src.out.front());
    src.out.pop_front();
    src.out_bytes -= in_flight_.wire_bytes();
    busy_ = true;
    rr_next_ = (idx + 1) % n;

    const Tick cycles =
        (in_flight_.wire_bytes() + params_.bytes_per_cycle - 1) / params_.bytes_per_cycle;
    stats_.busy_cycles += cycles;
    stats_.record_busy(engine_->now(), cycles);
    engine_->schedule_in(std::max<Tick>(cycles, 1), [this] { complete(); });
    return;
  }
}

void BusFabric::complete() {
  MGCOMP_CHECK(busy_);
  Message msg = std::move(in_flight_);
  busy_ = false;

  stats_.record_pair(msg.src, msg.dst, endpoints_.size(), msg.wire_bytes());
  const bool inter_gpu =
      endpoints_[msg.src.value].is_gpu && endpoints_[msg.dst.value].is_gpu;
  stats_.record_transmit(msg, inter_gpu);

  if (tracer_ != nullptr) {
    const Tick end = engine_->now();
    const Tick cycles =
        (msg.wire_bytes() + params_.bytes_per_cycle - 1) / params_.bytes_per_cycle;
    tracer_->span(kFabricTrack, msg_type_name(msg.type).data(), "fabric",
                  end - std::max<Tick>(cycles, 1), end, msg.wire_bytes());
    tracer_->counter(
        kFabricTrack, "utilization",
        stats_.utilization(static_cast<std::size_t>(end / BusStats::kUtilizationBucketCycles)));
  }

  // Fail-stop gate: a transmission that finished while its wire was inside
  // a down window (or its destination GPU is physically dead) is lost. The
  // wire time was spent; the buffer reservation is released like a normal
  // injector drop. Detection is left to the requester's timeout machinery.
  if (health_ != nullptr &&
      (health_->wire_dead(msg.src, msg.dst) || health_->endpoint_dead(msg.dst))) {
    ++stats_.down_link_drops;
    stats_.down_link_dropped_bytes += msg.wire_bytes();
    if (tracer_ != nullptr) {
      tracer_->instant(kFabricTrack, "episode_drop", "fault", msg.wire_bytes());
    }
    consume(msg.dst, msg.wire_bytes());  // also re-kicks the bus
    return;
  }

  // Link faults are applied at transmission-complete: the wire time was
  // spent either way, and the destination's buffer reservation is already
  // in place (a dropped message releases it the same way consume() would).
  // Delivered stats accrue only past the drop gate: dropped bytes count as
  // offered traffic, never as delivered payload.
  if (injector_ != nullptr) {
    const FaultDecision fd = injector_->on_transmit(msg);
    if (fd.drop) {
      if (tracer_ != nullptr) {
        tracer_->instant(kFabricTrack, "drop", "fault", msg.wire_bytes());
      }
      consume(msg.dst, msg.wire_bytes());  // also re-kicks the bus
      return;
    }
    if (fd.duplicate) {
      Message copy = msg;  // clean copy re-enters the sender's queue
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
      kick();
      return;
    }
  }

  stats_.record_delivered(msg, inter_gpu);
  Endpoint& dst = endpoints_[msg.dst.value];
  dst.deliver(std::move(msg));
  kick();
}

}  // namespace mgcomp
