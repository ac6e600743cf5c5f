// The PCIe-like shared-bus interconnect of Section VI-B.
//
// One message occupies the whole fabric at a time; a message of W wire
// bytes holds the bus for ceil(W / bytes_per_cycle) whole cycles (the paper
// models 20 B/cycle at 1 GHz = 160 Gb/s, and "no two messages can share the
// same cycle"). Endpoints (the CPU and each GPU) are granted the bus in
// round-robin order. Each endpoint has a bounded input buffer; a message is
// only granted the bus when it fits in the destination's free input-buffer
// space, and the receiver frees that space when it finishes processing the
// message. Output queues are unbounded here — the compute units' bounded
// outstanding-request windows keep them shallow in practice (max depth is
// tracked in the stats so this assumption is observable).
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/assert.h"
#include "fabric/fabric.h"
#include "fabric/message.h"
#include "sim/engine.h"

namespace mgcomp {

/// Aggregate fabric counters, split by message type and by whether both
/// ends are GPUs (inter-GPU) or one end is the CPU.
///
/// Inter-GPU traffic is counted twice, at two points of the message life
/// cycle: *offered* counters accrue when a transmission finishes occupying
/// the wire (including messages the fault injector then drops), *delivered*
/// counters only when the message actually reaches its destination's input
/// buffer. On a lossless fabric the two are identical; under faults the
/// paper-figure metrics (compression ratio, traffic reduction) must use the
/// delivered counters, because dropped bytes never arrived and crediting
/// them would flatter the ratio exactly when the link is at its worst.
struct BusStats {
  std::uint64_t messages[kNumMsgTypes]{};        ///< per MsgType, all transmissions
  std::uint64_t wire_bytes[kNumMsgTypes]{};      ///< per MsgType, all transmissions
  std::uint64_t inter_gpu_by_type[kNumMsgTypes]{};  ///< per MsgType, GPU<->GPU only
  /// Delivered GPU<->GPU traffic (excludes fault-dropped messages).
  std::uint64_t inter_gpu_messages{0};
  std::uint64_t inter_gpu_wire_bytes{0};
  std::uint64_t inter_gpu_payload_raw_bits{0};
  std::uint64_t inter_gpu_payload_wire_bits{0};
  /// Offered GPU<->GPU traffic (every completed transmission, dropped or
  /// not). offered - delivered = bytes the link destroyed in flight.
  std::uint64_t inter_gpu_offered_messages{0};
  std::uint64_t inter_gpu_offered_wire_bytes{0};
  std::uint64_t inter_gpu_offered_payload_raw_bits{0};
  std::uint64_t inter_gpu_offered_payload_wire_bits{0};
  Tick busy_cycles{0};
  std::size_t max_out_queue_depth{0};

  // Fail-stop episode accounting (all zero unless episodes are configured).
  /// Completed transmissions lost because the wire or destination endpoint
  /// was physically dead at delivery time.
  std::uint64_t down_link_drops{0};
  std::uint64_t down_link_dropped_bytes{0};
  /// Queued messages discarded at arbitration because the destination GPU
  /// (or the sender itself) was declared DOWN by the health monitor.
  std::uint64_t discarded_to_dead{0};
  /// Port-based fabric (HierFabric) route-around: messages detoured past a
  /// DOWN link, and the extra serialization cycles the detours cost (one
  /// more copy of every segment of the direct route).
  std::uint64_t rerouted_messages{0};
  std::uint64_t reroute_extra_cycles{0};

  // Hierarchical-fabric trunk accounting (all zero on the flat fabrics).
  // Not folded into run_fingerprint / collective_fingerprint, so recorded
  // goldens on bus/switch configs stay valid.
  std::uint64_t trunk_messages{0};     ///< completed transmissions that crossed nodes
  std::uint64_t trunk_wire_bytes{0};   ///< wire bytes those messages carried
  std::uint64_t trunk_hops{0};         ///< directed trunk links traversed in total
  Tick trunk_busy_cycles{0};           ///< trunk-link occupancy (sum over links)

  /// Books one finished transmission (wire time spent; fault outcome not
  /// yet known). Both fabrics call this at the top of their complete().
  void record_transmit(const Message& msg, bool inter_gpu) {
    const auto t = static_cast<std::size_t>(msg.type);
    ++messages[t];
    wire_bytes[t] += msg.wire_bytes();
    if (!inter_gpu) return;
    ++inter_gpu_by_type[t];
    ++inter_gpu_offered_messages;
    inter_gpu_offered_wire_bytes += msg.wire_bytes();
    if (msg.has_payload()) {
      // length is kLineBytes on the line path, so this is kLineBits there;
      // bulk messages book their full raw block size.
      inter_gpu_offered_payload_raw_bits += static_cast<std::uint64_t>(msg.length) * 8;
      inter_gpu_offered_payload_wire_bits += msg.payload_bits;
    }
  }

  /// Books a message that will reach its destination (i.e. the injector
  /// did not drop it; corruption and delay still count as delivered — the
  /// bytes arrive, the receiver's CRC path accounts for the waste).
  void record_delivered(const Message& msg, bool inter_gpu) {
    if (!inter_gpu) return;
    ++inter_gpu_messages;
    inter_gpu_wire_bytes += msg.wire_bytes();
    if (msg.has_payload()) {
      inter_gpu_payload_raw_bits += static_cast<std::uint64_t>(msg.length) * 8;
      inter_gpu_payload_wire_bits += msg.payload_bits;
    }
  }

  /// Coarse utilization timeline: busy cycles accumulated per fixed-width
  /// time bucket (grown on demand). Lets tools plot phase behavior
  /// without per-message logs.
  static constexpr Tick kUtilizationBucketCycles = 8192;
  std::vector<std::uint32_t> busy_by_bucket;

  void record_busy(Tick start, Tick cycles) {
    // Spread across bucket boundaries so no bucket can exceed 100%.
    while (cycles > 0) {
      const std::size_t bucket = static_cast<std::size_t>(start / kUtilizationBucketCycles);
      if (bucket >= busy_by_bucket.size()) busy_by_bucket.resize(bucket + 1, 0);
      const Tick bucket_end = (static_cast<Tick>(bucket) + 1) * kUtilizationBucketCycles;
      const Tick chunk = std::min(cycles, bucket_end - start);
      busy_by_bucket[bucket] += static_cast<std::uint32_t>(chunk);
      start += chunk;
      cycles -= chunk;
    }
  }

  /// Utilization (0..1) of bucket `i`.
  [[nodiscard]] double utilization(std::size_t i) const noexcept {
    if (i >= busy_by_bucket.size()) return 0.0;
    return static_cast<double>(busy_by_bucket[i]) /
           static_cast<double>(kUtilizationBucketCycles);
  }

  /// Endpoint-pair traffic matrix: wire bytes sent src -> dst, row-major
  /// over endpoint ids. Shows which links carry the load (e.g. NUMA
  /// imbalance across GPUs).
  std::vector<std::uint64_t> pair_wire_bytes;
  std::size_t endpoints{0};

  void record_pair(EndpointId src, EndpointId dst, std::size_t n, std::uint64_t bytes) {
    if (endpoints < n) {
      // Re-shape preserving nothing is fine: n is fixed before traffic.
      endpoints = n;
      pair_wire_bytes.assign(n * n, 0);
    }
    pair_wire_bytes[src.value * endpoints + dst.value] += bytes;
  }

  [[nodiscard]] std::uint64_t pair_bytes(std::size_t src, std::size_t dst) const noexcept {
    if (src >= endpoints || dst >= endpoints) return 0;
    return pair_wire_bytes[src * endpoints + dst];
  }

  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    std::uint64_t t = 0;
    for (const auto m : messages) t += m;
    return t;
  }
  [[nodiscard]] std::uint64_t total_wire_bytes() const noexcept {
    std::uint64_t t = 0;
    for (const auto b : wire_bytes) t += b;
    return t;
  }
};

class BusFabric final : public Fabric {
 public:
  struct Params {
    std::uint32_t bytes_per_cycle{20};
    std::size_t input_buffer_bytes{4096};
  };

  BusFabric(Engine& engine, Params params) : engine_(&engine), params_(params) {
    MGCOMP_CHECK_MSG(params_.bytes_per_cycle >= 1, "BusFabric: bytes_per_cycle must be >= 1");
  }

  /// Registers an endpoint; `is_gpu` controls inter-GPU accounting.
  EndpointId add_endpoint(std::string name, bool is_gpu, DeliverFn deliver) override {
    endpoints_.push_back(Endpoint{std::move(name), std::move(deliver), {}, 0, 0, is_gpu});
    return EndpointId{static_cast<std::uint32_t>(endpoints_.size() - 1)};
  }

  /// Queues `msg` for transmission from `msg.src`.
  void send(Message msg) override;

  /// Frees `bytes` of input-buffer space at `ep` after the receiver has
  /// finished processing a delivered message.
  void consume(EndpointId ep, std::size_t bytes) override;

  [[nodiscard]] const BusStats& stats() const noexcept override { return stats_; }
  [[nodiscard]] bool idle() const noexcept { return !busy_; }

  [[nodiscard]] const std::string& endpoint_name(EndpointId ep) const override {
    return endpoints_.at(ep.value).name;
  }

  void set_fault_injector(FaultInjector* injector) noexcept override {
    injector_ = injector;
  }
  void set_health_monitor(HealthMonitor* health) noexcept override { health_ = health; }
  /// A link recovered or a peer was declared dead: stalled heads may now be
  /// grantable (or purgeable), so re-run arbitration.
  void on_health_change() override { kick(); }
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
    std::size_t out_bytes{0};
    std::size_t in_bytes{0};  ///< input-buffer bytes currently reserved
    bool is_gpu{false};
  };

  /// Grants the bus to the next eligible endpoint if it is free.
  void kick();

  /// Transfer-complete handler for the in-flight message.
  void complete();

  /// Pops and counts head-of-queue messages that can never be delivered
  /// (destination GPU declared DOWN, or the sender itself is dead).
  void purge_undeliverable(std::size_t idx);

  Engine* engine_;
  Params params_;
  std::vector<Endpoint> endpoints_;
  BusStats stats_;
  FaultInjector* injector_{nullptr};
  HealthMonitor* health_{nullptr};
  Tracer* tracer_{nullptr};
  bool busy_{false};
  Message in_flight_{};
  std::size_t rr_next_{0};  ///< round-robin scan start
};

}  // namespace mgcomp
