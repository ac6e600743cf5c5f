#include "gpu/rdma.h"

#include <algorithm>

#include "common/assert.h"
#include "fault/health.h"
#include "obs/tracer.h"

namespace mgcomp {

std::uint16_t RdmaEngine::alloc_id() {
  // Outstanding requests are bounded by the CUs' windows (a few hundred),
  // far below 2^16, so a wrapping counter works — but only if it skips ids
  // that are still live. Two classes must be avoided: ids in pending_
  // (their response has not arrived) and quarantined ids (their request
  // completed or hard-failed, but a stale response may still be in flight
  // after retransmission). Reusing either would let an old response
  // complete the wrong request.
  for (int guard = 0; guard < 1 << 16; ++guard) {
    const std::uint16_t id = next_id_++;
    if (!pending_.contains(id) && !quarantined_.contains(id)) return id;
  }
  MGCOMP_CHECK_MSG(false, "RDMA sequence-number space exhausted");
  return 0;
}

void RdmaEngine::quarantine_id(std::uint16_t id) {
  if (!reliable_) return;  // without faults there are no stale responses
  if (quarantined_.insert(id).second) {
    quarantine_fifo_.push_back(id);
    if (quarantine_fifo_.size() > kQuarantineCap) {
      quarantined_.erase(quarantine_fifo_.front());
      quarantine_fifo_.pop_front();
    }
  }
}

namespace {

/// Bulk-path shape contract: a whole number of lines, at most one page,
/// wholly inside one page (so one owner serves it and the owner-side
/// access loop never crosses an ownership boundary).
void check_bulk_span(Addr addr, std::uint32_t length) {
  MGCOMP_CHECK_MSG(addr == line_base(addr), "bulk span must start on a line boundary");
  MGCOMP_CHECK_MSG(length > 0 && length % kLineBytes == 0,
                   "bulk length must be a whole number of lines");
  MGCOMP_CHECK_MSG(length <= kPageBytes, "bulk span exceeds one page");
  MGCOMP_CHECK_MSG(page_index(addr) == page_index(addr + length - 1),
                   "bulk span crosses a page (ownership) boundary");
}

}  // namespace

void RdmaEngine::remote_read(Addr addr, std::function<void(bool)> done) {
  const GpuId owner = map_->owner(addr);
  MGCOMP_CHECK_MSG(owner != self_, "remote_read called for a local address");
  const std::uint16_t id = alloc_id();
  const auto [it, inserted] = pending_.emplace(
      id, PendingRequest{std::move(done), line_base(addr), kLineBytes, MsgType::kReadReq,
                         gpu_endpoint_(owner), engine_->now(), 0, false, nullptr});
  MGCOMP_CHECK(inserted);
  arm_timer(id, it->second);
  send_request(id, it->second);
}

void RdmaEngine::remote_write(Addr addr, std::function<void(bool)> done) {
  const GpuId owner = map_->owner(addr);
  MGCOMP_CHECK_MSG(owner != self_, "remote_write called for a local address");
  const std::uint16_t id = alloc_id();
  const auto [it, inserted] = pending_.emplace(
      id, PendingRequest{std::move(done), line_base(addr), kLineBytes, MsgType::kWriteReq,
                         gpu_endpoint_(owner), engine_->now(), 0, false, nullptr});
  MGCOMP_CHECK(inserted);
  arm_timer(id, it->second);
  send_request(id, it->second);
}

void RdmaEngine::remote_read_bulk(Addr addr, std::uint32_t length,
                                  std::function<void(bool)> done) {
  check_bulk_span(addr, length);
  if (length == kLineBytes) {  // degenerate bulk = the line path
    remote_read(addr, std::move(done));
    return;
  }
  const GpuId owner = map_->owner(addr);
  MGCOMP_CHECK_MSG(owner != self_, "remote_read_bulk called for a local span");
  const std::uint16_t id = alloc_id();
  const auto [it, inserted] = pending_.emplace(
      id, PendingRequest{std::move(done), addr, length, MsgType::kReadReq,
                         gpu_endpoint_(owner), engine_->now(), 0, false, nullptr});
  MGCOMP_CHECK(inserted);
  arm_timer(id, it->second);
  send_request(id, it->second);
}

void RdmaEngine::remote_write_bulk(Addr addr, std::uint32_t length,
                                   std::function<void(bool)> done) {
  check_bulk_span(addr, length);
  if (length == kLineBytes) {
    remote_write(addr, std::move(done));
    return;
  }
  const GpuId owner = map_->owner(addr);
  MGCOMP_CHECK_MSG(owner != self_, "remote_write_bulk called for a local span");
  const std::uint16_t id = alloc_id();
  const auto [it, inserted] = pending_.emplace(
      id, PendingRequest{std::move(done), addr, length, MsgType::kWriteReq,
                         gpu_endpoint_(owner), engine_->now(), 0, false, nullptr});
  MGCOMP_CHECK(inserted);
  arm_timer(id, it->second);
  send_request(id, it->second);
}

void RdmaEngine::send_request(std::uint16_t id, const PendingRequest& req) {
  if (req.type == MsgType::kWriteReq) {
    send_payload(req.addr, req.length, MsgType::kWriteReq, id, req.dst);
    return;
  }
  Message m;
  m.type = MsgType::kReadReq;
  m.id = id;
  m.src = self_ep_;
  m.dst = req.dst;
  m.addr = req.addr;
  m.length = req.length;
  bus_->send(std::move(m));
}

void RdmaEngine::send_payload(Addr addr, std::uint32_t length, MsgType type,
                              std::uint16_t id, EndpointId dst) {
  Message m;
  m.type = type;
  m.id = id;
  m.src = self_ep_;
  m.dst = dst;
  m.addr = addr;
  m.length = length;

  Tick compress_latency = 0;
  Tick compress_occupancy = 0;
  if (length == kLineBytes) {
    const Line line = mem_->read_line(addr);
    const CompressionDecision d = policy_->decide(line);
    collector_->on_payload_sent(line, d);
    m.comp_alg = d.wire_codec;
    m.payload_bits = d.payload_bits;
    m.data = line;
    m.decompress_latency = d.decompress_latency;
    m.decompress_occupancy = d.decompress_occupancy;
    m.decompress_energy_pj = d.decompress_energy_pj;
    compress_latency = d.compress_latency;
    compress_occupancy = d.compress_occupancy;
  } else {
    // Bulk block: gather the lines into a recycled pool buffer, let the
    // policy pick the block framing from its allocation-free probe, and
    // ship the whole block as ONE message (one event chain, one CRC). The
    // message carries the decoded bytes — like the line path, the encoded
    // size lives in payload_bits and only shapes wire timing.
    std::vector<std::uint8_t> block = payload_pool_.acquire(length);
    block.resize(length);
    for (std::uint32_t off = 0; off < length; off += kLineBytes) {
      const Line line = mem_->read_line(addr + off);
      std::copy(line.begin(), line.end(), block.begin() + off);
    }
    const BlockDecision d = policy_->decide_block(block.data(), block.size());
    collector_->on_bulk_payload_sent(length, d);
    m.block_alg = d.alg;
    m.payload_bits = d.payload_bits;
    m.block = std::move(block);
    m.decompress_latency = d.decompress_latency;
    m.decompress_occupancy = d.decompress_occupancy;
    m.decompress_energy_pj = d.decompress_energy_pj;
    compress_latency = d.compress_latency;
    compress_occupancy = d.compress_occupancy;
  }

  if (compress_latency == 0) {
    bus_->send(std::move(m));
  } else {
    // The path's compressor accepts one payload per `compress_occupancy`
    // cycles; the payload leaves `compress_latency` cycles after acceptance.
    Tick& unit = compressor_free_at_[type == MsgType::kWriteReq ? 1 : 0];
    const Tick start = std::max(engine_->now(), unit);
    unit = start + compress_occupancy;
    engine_->schedule_at(start + compress_latency,
                         [this, m = std::move(m)]() mutable { bus_->send(std::move(m)); });
  }
}

void RdmaEngine::arm_timer(std::uint16_t id, PendingRequest& req) {
  if (!reliable_ || retry_.timeout == 0) return;
  Tick t = retry_.timeout;
  for (std::uint32_t r = 0; r < req.retries; ++r) {
    t = static_cast<Tick>(static_cast<double>(t) * std::max(retry_.backoff_factor, 1.0));
    if (t >= retry_.timeout_cap) {
      t = retry_.timeout_cap;
      break;
    }
  }
  if (req.retries > 0) collector_->link().backoff_cycles += t - retry_.timeout;
  req.timer = engine_->schedule_cancellable_in(t, [this, id] { on_timeout(id); }, req.timer);
}

void RdmaEngine::cancel_timer(PendingRequest& req) {
  engine_->cancel(req.timer);
}

void RdmaEngine::on_timeout(std::uint16_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end() || it->second.completing) return;  // stale firing
  policy_->on_link_feedback(LinkEvent::kTimeout);
  if (health_ != nullptr) health_->on_link_error(self_ep_, it->second.dst);
  retransmit(id, it->second, /*from_nack=*/false);
}

void RdmaEngine::retransmit(std::uint16_t id, PendingRequest& req, bool from_nack) {
  if (req.retries >= retry_.max_retries) {
    hard_fail(id, req);
    return;
  }
  ++req.retries;
  LinkStats& link = collector_->link();
  if (from_nack) {
    ++link.fast_retransmits;
  } else {
    ++link.timeout_retransmits;
  }
  if (tracer_ != nullptr) {
    tracer_->instant(track_, from_nack ? "fast_retransmit" : "timeout_retransmit", "link",
                     req.addr);
  }
  cancel_timer(req);
  arm_timer(id, req);
  send_request(id, req);
}

void RdmaEngine::hard_fail(std::uint16_t id, PendingRequest& req) {
  ++collector_->link().hard_failures;
  collector_->record_link_error(LinkError{self_, req.addr, req.type, req.retries});
  if (tracer_ != nullptr) tracer_->instant(track_, "hard_failure", "link", req.addr);
  policy_->on_link_feedback(LinkEvent::kHardFailure);
  if (health_ != nullptr) health_->on_link_error(self_ep_, req.dst);
  cancel_timer(req);
  quarantine_id(id);
  auto done = std::move(req.done);
  pending_.erase(id);
  // Release the CU window slot so the kernel drains; ok == false tells
  // freshness-sensitive callers (collectives) the data never arrived.
  done(false);
}

void RdmaEngine::replay_remember(EndpointId requester, std::uint16_t id, Addr addr,
                                 std::uint32_t length) {
  const std::uint64_t key = replay_key(requester, id);
  if (replay_.insert_or_assign(key, ReplayEntry{addr, length}).second) {
    replay_fifo_.push_back(key);
    if (replay_fifo_.size() > kReplayCap) {
      replay_.erase(replay_fifo_.front());
      replay_fifo_.pop_front();
    }
  }
}

bool RdmaEngine::crc_accept(const Message& msg) {
  if (msg.crc == message_crc(msg)) return true;
  LinkStats& link = collector_->link();
  ++link.crc_failures;
  link.wasted_wire_bytes += msg.wire_bytes();
  if (tracer_ != nullptr) tracer_->instant(track_, "crc_reject", "link", msg.wire_bytes());
  const bool nackable = msg.has_payload();
  const EndpointId sender = msg.src;
  const std::uint16_t id = msg.id;
  bus_->consume(self_ep_, msg.wire_bytes());
  if (nackable) {
    // The sender holds enough state to retransmit (pending write or
    // replay-cache entry), so tell it immediately instead of waiting for
    // the requester-side timeout.
    ++link.nacks_sent;
    Message nack;
    nack.type = MsgType::kNack;
    nack.id = id;  // possibly corrupted; suppression absorbs a mismatch
    nack.src = self_ep_;
    nack.dst = sender;
    bus_->send(std::move(nack));
  }
  // Corrupt requests/ACKs/NACKs carry no recoverable intent — drop them;
  // the affected request recovers via its timeout.
  return false;
}

void RdmaEngine::deliver(Message&& msg) {
  if (!crc_accept(msg)) return;
  switch (msg.type) {
    case MsgType::kReadReq: handle_read_req(std::move(msg)); break;
    case MsgType::kDataReady: handle_data_ready(std::move(msg)); break;
    case MsgType::kWriteReq: handle_write_req(std::move(msg)); break;
    case MsgType::kWriteAck: handle_write_ack(std::move(msg)); break;
    case MsgType::kNack: handle_nack(std::move(msg)); break;
  }
}

void RdmaEngine::handle_read_req(Message&& msg) {
  // Owner side: fetch the line from local L2/DRAM, then compress and
  // respond. The request's input-buffer space is held until the response
  // is handed to the fabric (it models unprocessed-message backlog).
  // A duplicated/retransmitted request simply regenerates the response;
  // the requester suppresses the extra copy.
  if (reliable_) replay_remember(msg.src, msg.id, msg.addr, msg.length);
  // A bulk request books every line of the span on the local hierarchy; the
  // response leaves when the slowest line is ready (the lines stream out of
  // banked L2/DRAM in parallel, so the block is ready at the max, not the
  // sum).
  Tick ready = 0;
  for (std::uint32_t off = 0; off < msg.length; off += kLineBytes) {
    ready = std::max(ready, owner_access_(msg.addr + off, /*is_write=*/false));
  }
  const std::uint32_t req_wire = msg.wire_bytes();
  engine_->schedule_at(ready, [this, msg = std::move(msg), req_wire] {
    send_payload(msg.addr, msg.length, MsgType::kDataReady, msg.id, msg.src);
    bus_->consume(self_ep_, req_wire);
  });
}

void RdmaEngine::handle_data_ready(Message&& msg) {
  // Requester side: charge decompression (bypassed when Comp Alg is 0),
  // then complete the matching pending read.
  const auto it = pending_.find(msg.id);
  if (it == pending_.end() || it->second.completing ||
      it->second.type != MsgType::kReadReq) {
    // Duplicate or stale response — possible once the link duplicates
    // messages or a retransmitted request is answered twice. Without
    // faults this is a protocol violation worth aborting on.
    MGCOMP_CHECK_MSG(reliable_, "Data-Ready for unknown request id");
    LinkStats& link = collector_->link();
    ++link.duplicates_suppressed;
    link.wasted_wire_bytes += msg.wire_bytes();
    bus_->consume(self_ep_, msg.wire_bytes());
    return;
  }
  it->second.completing = true;
  cancel_timer(it->second);

  const Tick lat = msg.decompress_latency;
  const Tick occ = msg.decompress_occupancy;
  auto finish = [this, msg = std::move(msg)]() mutable {
    collector_->on_payload_received(msg.decompress_energy_pj);
    bus_->consume(self_ep_, msg.wire_bytes());
    const bool bulk = msg.is_bulk();
    // Recycle the bulk block's storage: received blocks refill this
    // engine's pool, which its own outgoing bulk sends draw from.
    if (bulk) payload_pool_.release(std::move(msg.block));
    const auto pit = pending_.find(msg.id);
    MGCOMP_CHECK_MSG(pit != pending_.end(), "read completion raced with retirement");
    const Tick issued = pit->second.issued;
    const Tick took = engine_->now() - issued;
    if (bulk) {
      collector_->record_bulk_read_latency(took);
    } else {
      collector_->record_read_latency(took);
    }
    if (tracer_ != nullptr) {
      tracer_->span(track_, bulk ? "remote_read_bulk" : "remote_read", "rdma", issued,
                    engine_->now(), msg.addr);
    }
    if (pit->second.retries > 0) quarantine_id(msg.id);
    if (health_ != nullptr) health_->on_link_success(self_ep_, pit->second.dst);
    auto done = std::move(pit->second.done);
    pending_.erase(pit);
    done(true);
  };
  if (lat == 0) {
    finish();
  } else {
    Tick& unit = decompressor_free_at_[0];
    const Tick start = std::max(engine_->now(), unit);
    unit = start + occ;
    engine_->schedule_at(start + lat, std::move(finish));
  }
}

void RdmaEngine::handle_write_req(Message&& msg) {
  // Owner side: decompress (if compressed), commit to local memory
  // hierarchy, then acknowledge. Re-committing a duplicated write is
  // idempotent (same line contents), so no owner-side suppression is
  // needed; the requester suppresses the duplicate ACK.
  const Tick lat = msg.decompress_latency;
  const Tick occ = msg.decompress_occupancy;
  auto commit = [this, msg = std::move(msg)]() mutable {
    collector_->on_payload_received(msg.decompress_energy_pj);
    // Books local bandwidth (every line of a bulk span); the ack is posted.
    for (std::uint32_t off = 0; off < msg.length; off += kLineBytes) {
      owner_access_(msg.addr + off, /*is_write=*/true);
    }
    bus_->consume(self_ep_, msg.wire_bytes());
    if (msg.is_bulk()) payload_pool_.release(std::move(msg.block));

    Message ack;
    ack.type = MsgType::kWriteAck;
    ack.id = msg.id;
    ack.src = self_ep_;
    ack.dst = msg.src;
    bus_->send(std::move(ack));
  };
  if (lat == 0) {
    commit();
  } else {
    Tick& unit = decompressor_free_at_[1];
    const Tick start = std::max(engine_->now(), unit);
    unit = start + occ;
    engine_->schedule_at(start + lat, std::move(commit));
  }
}

void RdmaEngine::handle_write_ack(Message&& msg) {
  bus_->consume(self_ep_, msg.wire_bytes());
  const auto it = pending_.find(msg.id);
  if (it == pending_.end() || it->second.completing ||
      it->second.type != MsgType::kWriteReq) {
    MGCOMP_CHECK_MSG(reliable_, "Write-ACK for unknown request id");
    LinkStats& link = collector_->link();
    ++link.duplicates_suppressed;
    link.wasted_wire_bytes += msg.wire_bytes();
    return;
  }
  cancel_timer(it->second);
  const Tick issued = it->second.issued;
  const bool bulk = it->second.length > kLineBytes;
  if (bulk) {
    collector_->record_bulk_write_latency(engine_->now() - issued);
  } else {
    collector_->record_write_latency(engine_->now() - issued);
  }
  if (tracer_ != nullptr) {
    tracer_->span(track_, bulk ? "remote_write_bulk" : "remote_write", "rdma", issued,
                  engine_->now(), it->second.addr);
  }
  if (it->second.retries > 0) quarantine_id(msg.id);
  if (health_ != nullptr) health_->on_link_success(self_ep_, it->second.dst);
  auto done = std::move(it->second.done);
  pending_.erase(it);
  done(true);
}

void RdmaEngine::handle_nack(Message&& msg) {
  bus_->consume(self_ep_, msg.wire_bytes());
  MGCOMP_CHECK_MSG(reliable_, "NACK on a lossless fabric");
  LinkStats& link = collector_->link();
  ++link.nacks_received;

  // Case 1: one of our pending requests (a Write payload) was corrupted at
  // the owner — fast retransmit. A NACK whose id was itself corrupted can
  // alias an unrelated pending request here; the spurious resend is
  // absorbed by duplicate suppression at the responder.
  const auto it = pending_.find(msg.id);
  if (it != pending_.end() && !it->second.completing && it->second.dst == msg.src) {
    policy_->on_link_feedback(LinkEvent::kNackReceived);
    retransmit(msg.id, it->second, /*from_nack=*/true);
    return;
  }

  // Case 2: a Data-Ready we produced as owner was corrupted — replay it
  // from the response cache.
  const auto rit = replay_.find(replay_key(msg.src, msg.id));
  if (rit != replay_.end()) {
    ++link.replay_hits;
    policy_->on_link_feedback(LinkEvent::kNackReceived);
    send_payload(rit->second.addr, rit->second.length, MsgType::kDataReady, msg.id,
                 msg.src);
    return;
  }

  // Evicted replay entry or corrupted NACK id: the requester's timeout is
  // the backstop.
  ++link.stray_nacks;
}

}  // namespace mgcomp
