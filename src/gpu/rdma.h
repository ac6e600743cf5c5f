// Remote Direct Memory Access engine — one per GPU.
//
// The RDMA engine is where the paper's mechanism lives: every payload a GPU
// sends (Data-Ready read responses and Write requests) passes through this
// GPU's compression policy; every compressed payload it receives is charged
// the decompression latency before delivery completes. Requests carry
// 16-bit sequence numbers so responses can arrive out of order (Fig. 4).
//
// Reliability extension (active only when the system enables link faults):
// every delivered message is CRC-checked first. Corrupt payload-bearing
// messages (Data-Ready / Write) are NACKed back to the sender; corrupt
// requests and ACKs are silently discarded and recovered by the requester's
// timeout. Each outstanding request arms a cancellable timeout with
// exponential backoff and a bounded retry budget; exhausting the budget
// surfaces a structured LinkError in the run result instead of aborting.
// Retransmission makes duplicate responses and stale ids possible, so
// responses for unknown/completed ids are suppressed, and ids of requests
// that saw retries are quarantined before reuse.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "adaptive/policy.h"
#include "analysis/collector.h"
#include "common/assert.h"
#include "common/payload_pool.h"
#include "fabric/fabric.h"
#include "fault/fault_injector.h"
#include "memory/address_map.h"
#include "memory/global_memory.h"
#include "sim/engine.h"

namespace mgcomp {

class HealthMonitor;
class Tracer;

class RdmaEngine {
 public:
  /// `owner_access(addr, is_write)` books this GPU's local L2/DRAM for a
  /// line access on behalf of a remote requester and returns the absolute
  /// tick at which the access completes.
  using OwnerAccessFn = std::function<Tick(Addr, bool)>;

  RdmaEngine(Engine& engine, Fabric& bus, GlobalMemory& mem, const AddressMap& map,
             Collector& collector, GpuId self)
      : engine_(&engine), bus_(&bus), mem_(&mem), map_(&map), collector_(&collector),
        self_(self) {}

  /// Must be called once before simulation starts. `link_faults` arms the
  /// retransmission machinery (timers, replay cache); on a lossless fabric
  /// it stays off so the engine schedules exactly the same events as a
  /// build without the reliability layer.
  void configure(EndpointId self_ep, std::function<EndpointId(GpuId)> gpu_endpoint,
                 OwnerAccessFn owner_access, std::unique_ptr<CompressionPolicy> policy,
                 const RetryParams& retry = {}, bool link_faults = false) {
    // A backoff cap below the base timeout is degenerate: every armed timer
    // clamps to the cap, and with cap == 0 the "timeout" fires in the same
    // tick as the send — an infinite retransmit storm that never lets the
    // response arrive. Reject the configuration instead of livelocking.
    MGCOMP_CHECK_MSG(
        !link_faults || retry.timeout == 0 || retry.timeout_cap >= retry.timeout,
        "RetryParams::timeout_cap must be >= timeout when retransmission is armed");
    self_ep_ = self_ep;
    gpu_endpoint_ = std::move(gpu_endpoint);
    owner_access_ = std::move(owner_access);
    policy_ = std::move(policy);
    policy_->set_payload_pool(&payload_pool_);
    retry_ = retry;
    reliable_ = link_faults;
  }

  /// Reads the remote line containing `addr`; `done(ok)` fires when the
  /// data (decompressed if needed) is available at this GPU. `ok` is false
  /// when the request exhausted its retry budget instead (the window slot
  /// drains either way; callers that care about data freshness — the
  /// collective layer — must check it).
  void remote_read(Addr addr, std::function<void(bool ok)> done);

  /// Writes the line containing `addr` (current functional contents) to its
  /// remote owner; `done(ok)` fires when the Write-ACK returns, or with
  /// ok == false on retry exhaustion.
  void remote_write(Addr addr, std::function<void(bool ok)> done);

  /// Bulk fast path: one request / one response / one CRC for a block of
  /// `length` bytes (line-aligned `addr`, a whole number of lines, at most
  /// one page, and wholly inside one page so a single owner serves it).
  /// The block travels as one payload message through the same policy,
  /// fault-injection, retransmission, and payload-pool machinery as the
  /// line path, with the size-adaptive policy choosing its block framing.
  void remote_read_bulk(Addr addr, std::uint32_t length,
                        std::function<void(bool ok)> done);
  void remote_write_bulk(Addr addr, std::uint32_t length,
                         std::function<void(bool ok)> done);

  /// Outcome-blind conveniences for callers whose functional state is
  /// already correct (workload kernels): a hard failure only costs timing
  /// fidelity there, so they complete the same way either path resolves.
  void remote_read(Addr addr, std::function<void()> done) {
    remote_read(addr, [d = std::move(done)](bool) { d(); });
  }
  void remote_write(Addr addr, std::function<void()> done) {
    remote_write(addr, [d = std::move(done)](bool) { d(); });
  }

  /// Bus delivery callback for this GPU's endpoint.
  void deliver(Message&& msg);

  [[nodiscard]] const CompressionPolicy& policy() const noexcept { return *policy_; }
  [[nodiscard]] CompressionPolicy& policy() noexcept { return *policy_; }
  [[nodiscard]] EndpointId endpoint() const noexcept { return self_ep_; }

  /// Installs an event tracer; `track` is this GPU's swim lane. Also
  /// forwarded to the compression policy (phase spans share the lane).
  void set_tracer(Tracer* tracer, std::uint32_t track) {
    tracer_ = tracer;
    track_ = track;
    if (policy_) policy_->set_tracer(tracer, track);
  }

  /// Installs the health monitor fed by this engine's reliability layer:
  /// timeouts and hard failures report link errors against the request's
  /// peer, completed transfers report successes. Null (the default) keeps
  /// the reliability path health-blind and schedule-identical to a build
  /// without fail-stop domains.
  void set_health_monitor(HealthMonitor* health) noexcept { health_ = health; }

  /// Requests currently awaiting a response.
  [[nodiscard]] std::size_t outstanding() const noexcept { return pending_.size(); }

  /// Payload-buffer pool stats (hit/miss counters surfaced in RunResult).
  [[nodiscard]] const PayloadPool& payload_pool() const noexcept { return payload_pool_; }

 private:
  struct PendingRequest {
    std::function<void(bool ok)> done;
    Addr addr{0};
    /// Requested bytes: kLineBytes on the line path, a multiple of it on
    /// the bulk path (retransmissions regenerate the same-size request).
    std::uint32_t length{kLineBytes};
    MsgType type{MsgType::kReadReq};
    EndpointId dst{};
    Tick issued{0};  ///< CU issue tick, for completion-latency accounting
    std::uint32_t retries{0};
    /// Response accepted, completion (decompression) in flight: further
    /// responses/NACKs/timeouts for this id must be ignored.
    bool completing{false};
    Engine::CancelToken timer;
  };

  std::uint16_t alloc_id();

  /// Parks `id` so alloc_id skips it while stale responses to it may still
  /// be in flight (hard failures and retransmitted-then-completed
  /// requests). FIFO-bounded, far larger than any in-flight horizon.
  void quarantine_id(std::uint16_t id);

  /// Runs the policy on the payload at `addr` (`length == kLineBytes`: the
  /// line path; larger: the bulk block path) and, after the compression
  /// latency, sends a payload-bearing message (Data-Ready or Write).
  void send_payload(Addr addr, std::uint32_t length, MsgType type, std::uint16_t id,
                    EndpointId dst);

  /// (Re)sends the request message for a pending entry.
  void send_request(std::uint16_t id, const PendingRequest& req);

  /// Arms (or re-arms) the request's timeout: base * backoff^retries,
  /// capped. No-op unless link faults are enabled and timeout > 0.
  void arm_timer(std::uint16_t id, PendingRequest& req);
  void cancel_timer(PendingRequest& req);
  void on_timeout(std::uint16_t id);

  /// Retransmits after a NACK; counts toward the same retry budget as
  /// timeouts so a livelocked link still terminates in a hard failure.
  void retransmit(std::uint16_t id, PendingRequest& req, bool from_nack);

  /// Retry budget exhausted: record a LinkError, quarantine the id, and
  /// complete the request so the CU window drains (functional memory is
  /// already correct; only the timing model loses this transfer).
  void hard_fail(std::uint16_t id, PendingRequest& req);

  /// Key of the owner-side Data-Ready replay cache: (requester, id).
  [[nodiscard]] static std::uint64_t replay_key(EndpointId requester,
                                                std::uint16_t id) noexcept {
    return (static_cast<std::uint64_t>(requester.value) << 16) | id;
  }
  void replay_remember(EndpointId requester, std::uint16_t id, Addr addr,
                       std::uint32_t length);

  void handle_read_req(Message&& msg);
  void handle_data_ready(Message&& msg);
  void handle_write_req(Message&& msg);
  void handle_write_ack(Message&& msg);
  void handle_nack(Message&& msg);

  /// CRC gate: returns true when `msg` passed. On failure consumes the
  /// buffer space, counts, NACKs payload-bearing types, and drops the rest.
  bool crc_accept(const Message& msg);

  Engine* engine_;
  Fabric* bus_;
  GlobalMemory* mem_;
  const AddressMap* map_;
  Collector* collector_;
  GpuId self_;

  EndpointId self_ep_{};
  std::function<EndpointId(GpuId)> gpu_endpoint_;
  OwnerAccessFn owner_access_;
  /// Declared before policy_ so released scratch buffers outlive their
  /// borrowers during destruction.
  PayloadPool payload_pool_;
  std::unique_ptr<CompressionPolicy> policy_;
  RetryParams retry_{};
  bool reliable_{false};
  HealthMonitor* health_{nullptr};
  Tracer* tracer_{nullptr};
  std::uint32_t track_{0};

  std::unordered_map<std::uint16_t, PendingRequest> pending_;
  std::uint16_t next_id_{0};

  /// Recently retired ids alloc_id must not reuse yet.
  std::unordered_set<std::uint16_t> quarantined_;
  std::deque<std::uint16_t> quarantine_fifo_;
  static constexpr std::size_t kQuarantineCap = 8192;

  /// Owner-side Data-Ready replay cache: lets a NACKed read response be
  /// regenerated without the requester waiting out its full timeout.
  struct ReplayEntry {
    Addr addr{0};
    std::uint32_t length{kLineBytes};
  };
  std::unordered_map<std::uint64_t, ReplayEntry> replay_;
  std::deque<std::uint64_t> replay_fifo_;
  static constexpr std::size_t kReplayCap = 512;

  // Non-pipelined (de)compressor units: a line occupies a unit for its
  // full latency, so codec latency turns into throughput loss when
  // payloads arrive faster than the unit drains (the paper's "C-Pack+Z
  // latency cannot be hidden" effect on AES). The TX-request pipeline
  // (outgoing Writes) and the TX-response pipeline (outgoing Data-Ready)
  // each have their own compressor; likewise the two RX pipelines each
  // have a decompressor.
  Tick compressor_free_at_[2]{0, 0};    // [0]=response path, [1]=request path
  Tick decompressor_free_at_[2]{0, 0};  // [0]=Data-Ready path, [1]=Write path
};

}  // namespace mgcomp
