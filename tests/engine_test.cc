// Event engine, cache, DRAM, address-map and bus unit tests.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fabric/bus.h"
#include "memory/address_map.h"
#include "memory/cache.h"
#include "memory/dram.h"
#include "memory/global_memory.h"
#include "sim/engine.h"

namespace mgcomp {
namespace {

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

TEST(Engine, RunsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] { order.push_back(2); });
  e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 20u);
}

TEST(Engine, SameTickFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    e.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, NestedScheduling) {
  Engine e;
  Tick fired_at = 0;
  e.schedule_at(3, [&] {
    e.schedule_in(4, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 7u);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int count = 0;
  for (Tick t = 1; t <= 100; ++t) e.schedule_at(t, [&] { ++count; });
  e.run_until(50);
  EXPECT_EQ(count, 50);
  e.run();
  EXPECT_EQ(count, 100);
}

TEST(Engine, RunUntilSkipsCancelledHeadAtDeadline) {
  Engine e;
  bool cancelled_fired = false;
  bool live_fired = false;
  auto token = e.schedule_cancellable_at(10, [&] { cancelled_fired = true; });
  e.schedule_at(10, [&] { live_fired = true; });
  e.schedule_at(20, [] {});
  e.cancel(token);

  EXPECT_EQ(e.run_until(10), 10U);
  EXPECT_FALSE(cancelled_fired);
  EXPECT_TRUE(live_fired);
  EXPECT_EQ(e.pending(), 1U);  // only the t=20 event remains
}

TEST(Engine, RunUntilWithOnlyCancelledEventsLeavesTimeUntouched) {
  Engine e;
  bool fired = false;
  auto token = e.schedule_cancellable_at(5, [&] { fired = true; });
  e.schedule_at(20, [] {});
  e.cancel(token);

  // The head below the deadline is dead: run_until must discard it without
  // advancing now() and stop at the first live event beyond the deadline.
  EXPECT_EQ(e.run_until(10), 0U);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending(), 1U);
  EXPECT_EQ(e.queued(), 1U);  // the dead slot was reclaimed on pop
}

TEST(Engine, CancelledEventNeitherRunsNorAdvancesTime) {
  Engine e;
  bool ran = false;
  Tick end = 0;
  const Engine::CancelToken token =
      e.schedule_cancellable_at(100, [&] { ran = true; });
  e.schedule_at(10, [&] { end = e.now(); });
  e.cancel(token);  // cancel before run
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(end, 10u);
  // The cancelled event at t=100 was popped but must not stretch the clock
  // (exec_ticks reads now() after run).
  EXPECT_EQ(e.now(), 10u);
}

TEST(Engine, CancellableEventRunsWhenNotCancelled) {
  Engine e;
  Tick fired_at = 0;
  const Engine::CancelToken token =
      e.schedule_cancellable_in(42, [&] { fired_at = e.now(); });
  ASSERT_TRUE(token != nullptr);
  e.run();
  EXPECT_EQ(fired_at, 42u);
  EXPECT_EQ(e.now(), 42u);
}

TEST(Engine, SharedTokenCancelsPeriodicChain) {
  // One token arms a self-rescheduling chain (the watchdog pattern);
  // cancelling it stops the whole chain: the armed event pops stale and
  // therefore never re-arms.
  Engine e;
  int fires = 0;
  Engine::CancelToken token = std::make_shared<Engine::CancelState>();
  std::function<void()> tick = [&] {
    ++fires;
    e.schedule_cancellable_in(10, tick, token);
  };
  e.schedule_cancellable_in(10, tick, token);
  e.schedule_at(35, [&] { e.cancel(token); });
  e.run();
  EXPECT_EQ(fires, 3);  // fired at 10, 20, 30; the event at 40 was cancelled
  EXPECT_EQ(e.now(), 35u);  // the cancelled 4th event did not advance time
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, RearmedTokenFiresAfterCancellation) {
  // Regression: re-arming a cancelled token must reset it live — the old
  // engine kept the token dead, so the re-armed event silently never fired
  // (a retransmission timer armed after a cancel would vanish).
  Engine e;
  int fires = 0;
  Engine::CancelToken token = e.schedule_cancellable_at(10, [&] { ++fires; });
  e.cancel(token);
  e.schedule_cancellable_at(20, [&] { ++fires; }, token);  // re-arm
  e.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(e.now(), 20u);
}

TEST(Engine, RearmingDoesNotResurrectOlderCancelledEvents) {
  // The generation guard: events armed before the cancellation stay dead
  // even though re-arming makes the shared token live again.
  Engine e;
  int old_fires = 0;
  int new_fires = 0;
  Engine::CancelToken token = e.schedule_cancellable_at(10, [&] { ++old_fires; });
  e.schedule_cancellable_at(15, [&] { ++old_fires; }, token);
  e.cancel(token);
  e.schedule_cancellable_at(5, [&] { ++new_fires; }, token);  // re-arm, earlier tick
  e.run();
  EXPECT_EQ(old_fires, 0);
  EXPECT_EQ(new_fires, 1);
  EXPECT_EQ(e.now(), 5u);  // the dead events at 10/15 did not advance time
}

TEST(Engine, PendingExcludesCancelledEvents) {
  // Satellite fix: pending() must report live events only, the moment
  // cancel() runs — not when the dead slot is eventually popped — so drain
  // checks and stall dumps see true queue depth.
  Engine e;
  e.schedule_at(10, [] {});
  const Engine::CancelToken token = e.schedule_cancellable_at(20, [] {});
  e.schedule_cancellable_at(30, [] {}, token);
  EXPECT_EQ(e.pending(), 3u);
  EXPECT_EQ(e.queued(), 3u);
  e.cancel(token);
  EXPECT_EQ(e.pending(), 1u);  // both token-armed events died instantly
  EXPECT_EQ(e.queued(), 3u);   // their slots still occupy the heap
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.queued(), 0u);
  EXPECT_EQ(e.events_executed(), 1u);
}

TEST(Engine, CountsExecutedEventsExcludingCancelled) {
  Engine e;
  for (Tick t = 1; t <= 5; ++t) e.schedule_at(t, [] {});
  const Engine::CancelToken token = e.schedule_cancellable_at(6, [] {});
  e.cancel(token);
  e.run();
  EXPECT_EQ(e.events_executed(), 5u);
}

TEST(Engine, SlabRecyclingSurvivesDeepSelfScheduling) {
  // A long self-rescheduling chain plus bursts of same-tick events
  // exercises slot reuse: each event releases its slot before running, so
  // a chain of any depth should keep the free list hot rather than growing
  // slabs without bound.
  Engine e;
  std::uint64_t sum = 0;
  std::function<void(int)> chain = [&](int remaining) {
    sum += static_cast<std::uint64_t>(remaining);
    if (remaining > 0) {
      e.schedule_in(1, [&chain, remaining] { chain(remaining - 1); });
    }
  };
  e.schedule_at(0, [&chain] { chain(10000); });
  e.run();
  EXPECT_EQ(sum, 10000ULL * 10001 / 2);
  EXPECT_EQ(e.now(), 10000u);
  EXPECT_EQ(e.events_executed(), 10001u);  // the seed event + one per link
}

// ---------------------------------------------------------------------------
// InlineFunction (the engine's SBO callback).
// ---------------------------------------------------------------------------

TEST(InlineFunction, EmptyAndReset) {
  InlineFunction f;
  EXPECT_FALSE(static_cast<bool>(f));
  int hits = 0;
  f = [&hits] { ++hits; };
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(hits, 1);
  f.reset();
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(InlineFunction, LargeCaptureStaysCorrectViaHeapFallback) {
  // A capture bigger than the inline buffer must still work (heap path).
  struct Big {
    std::array<std::uint64_t, 64> data{};  // 512 bytes > kInlineBytes
  };
  Big big;
  for (std::size_t i = 0; i < big.data.size(); ++i) big.data[i] = i;
  std::uint64_t sum = 0;
  InlineFunction f = [big, &sum] {
    for (const std::uint64_t v : big.data) sum += v;
  };
  InlineFunction g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move): documented state
  g();
  EXPECT_EQ(sum, 64ULL * 63 / 2);
}

TEST(InlineFunction, MoveTransfersOwnershipAndRunsDestructors) {
  const auto counter = std::make_shared<int>(0);
  InlineFunction f = [counter] { ++*counter; };
  EXPECT_EQ(counter.use_count(), 2);
  InlineFunction g = std::move(f);
  EXPECT_EQ(counter.use_count(), 2);  // exactly one live copy of the capture
  g();
  EXPECT_EQ(*counter, 1);
  g.reset();
  EXPECT_EQ(counter.use_count(), 1);  // capture destroyed
}

TEST(InlineFunction, MessageSizedCaptureFitsInline) {
  // The design target: a Message-by-value capture must fit the inline
  // buffer, since those are the hot-path events (see sim/callback.h).
  struct PayloadHop {
    void* self;
    Message msg;
  };
  static_assert(sizeof(PayloadHop) <= InlineFunction::kInlineBytes,
                "hot-path Message capture no longer fits the inline buffer — "
                "bump InlineFunction::kInlineBytes");
  Message m;
  m.payload_bits = 140;
  std::uint32_t seen = 0;
  InlineFunction f = [m, &seen] { seen = m.payload_bits; };
  f();
  EXPECT_EQ(seen, 140u);
}

// ---------------------------------------------------------------------------
// Cache.
// ---------------------------------------------------------------------------

TEST(Cache, MissThenHit) {
  Cache c(16 * 1024, 4);
  EXPECT_FALSE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1000, false));
  EXPECT_TRUE(c.access(0x1020, false));  // same line
  EXPECT_EQ(c.stats().read_misses, 1u);
  EXPECT_EQ(c.stats().read_hits, 2u);
}

TEST(Cache, LruEviction) {
  // 4-way, force 5 distinct lines into one set.
  Cache c(4 * kLineBytes, 4);  // 1 set, 4 ways
  EXPECT_EQ(c.num_sets(), 1u);
  for (Addr a = 0; a < 5 * kLineBytes; a += kLineBytes) c.access(a, false);
  EXPECT_FALSE(c.probe(0));                // oldest evicted
  EXPECT_TRUE(c.probe(4 * kLineBytes));    // newest present
  // Touch line 1 to make line 2 the LRU, then insert a 6th line.
  EXPECT_TRUE(c.access(1 * kLineBytes, false));
  c.access(5 * kLineBytes, false);
  EXPECT_FALSE(c.probe(2 * kLineBytes));
  EXPECT_TRUE(c.probe(1 * kLineBytes));
}

TEST(Cache, InvalidateAll) {
  Cache c(16 * 1024, 4);
  c.access(0x40, true);
  c.access(0x80, false);
  c.invalidate_all();
  EXPECT_FALSE(c.probe(0x40));
  EXPECT_FALSE(c.probe(0x80));
}

TEST(Cache, SetIndexingSeparatesLines) {
  Cache c(16 * 1024, 4);  // 64 sets
  // Lines mapping to different sets never evict each other.
  for (Addr a = 0; a < 64 * kLineBytes; a += kLineBytes) c.access(a, false);
  for (Addr a = 0; a < 64 * kLineBytes; a += kLineBytes) EXPECT_TRUE(c.probe(a));
}

// ---------------------------------------------------------------------------
// DRAM channels.
// ---------------------------------------------------------------------------

TEST(Dram, LatencyAndSerialization) {
  DramChannels d(2, DramParams{.access_latency = 100, .service_cycles = 4});
  EXPECT_EQ(d.book(ChannelId{0}, 0), 100u);
  // Second access on the same channel queues behind the first's service.
  EXPECT_EQ(d.book(ChannelId{0}, 0), 104u);
  EXPECT_EQ(d.book(ChannelId{0}, 0), 108u);
  // Other channel is independent.
  EXPECT_EQ(d.book(ChannelId{1}, 0), 100u);
  // Idle gap resets queuing.
  EXPECT_EQ(d.book(ChannelId{0}, 1000), 1100u);
  EXPECT_EQ(d.accesses(), 5u);
}

// ---------------------------------------------------------------------------
// Address map.
// ---------------------------------------------------------------------------

TEST(AddressMap, InterleavesPagesOverChannels) {
  AddressMap map(4, 8);
  EXPECT_EQ(map.total_channels(), 32u);
  // Pages 0..7 -> GPU0 channels 0..7, pages 8..15 -> GPU1, etc.
  EXPECT_EQ(map.owner(0 * kPageBytes), GpuId{0});
  EXPECT_EQ(map.owner(7 * kPageBytes), GpuId{0});
  EXPECT_EQ(map.owner(8 * kPageBytes), GpuId{1});
  EXPECT_EQ(map.owner(31 * kPageBytes), GpuId{3});
  EXPECT_EQ(map.owner(32 * kPageBytes), GpuId{0});  // wraps
  EXPECT_EQ(map.local_channel(9 * kPageBytes), ChannelId{1});
  // Within a page, ownership is constant.
  EXPECT_EQ(map.owner(5 * kPageBytes + 4095), map.owner(5 * kPageBytes));
}

TEST(AddressMap, AllGpusGetEqualShare) {
  AddressMap map(4, 8);
  std::array<int, 4> counts{};
  for (std::uint64_t p = 0; p < 1024; ++p) {
    ++counts[map.owner(p * kPageBytes).value];
  }
  for (const int c : counts) EXPECT_EQ(c, 256);
}

// ---------------------------------------------------------------------------
// Global memory.
// ---------------------------------------------------------------------------

TEST(GlobalMemory, ZeroFillAndRoundTrip) {
  GlobalMemory mem;
  const Addr a = mem.alloc(64 * 1024, "buf");
  EXPECT_NE(a, 0u);
  EXPECT_EQ(mem.load<std::uint64_t>(a + 128), 0u);  // untouched reads zero
  mem.store<std::uint32_t>(a + 100, 0xABCD1234u);
  EXPECT_EQ(mem.load<std::uint32_t>(a + 100), 0xABCD1234u);
}

TEST(GlobalMemory, CrossPageAccess) {
  GlobalMemory mem;
  const Addr a = mem.alloc(2 * kPageBytes);
  const Addr boundary = a + kPageBytes - 4;
  mem.store<std::uint64_t>(boundary, 0x1122334455667788ULL);
  EXPECT_EQ(mem.load<std::uint64_t>(boundary), 0x1122334455667788ULL);
}

TEST(GlobalMemory, TypedSpansCrossPages) {
  GlobalMemory mem;
  const Addr a = mem.alloc(4 * kPageBytes);
  // 3000 int32 from 100 bytes before the first page boundary: the span
  // covers the tail of one page, two whole pages and the head of a fourth.
  const Addr start = a + kPageBytes - 100;
  std::vector<std::int32_t> in(3000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::int32_t>(i * 2654435761u);
  }
  mem.write<std::int32_t>(start, in);
  std::vector<std::int32_t> out(in.size());
  mem.read<std::int32_t>(start, out);
  EXPECT_EQ(out, in);
  // The typed and byte forms see the same bytes.
  std::vector<std::uint8_t> bytes(in.size() * 4);
  mem.read(start, bytes);
  EXPECT_EQ(std::memcmp(bytes.data(), in.data(), bytes.size()), 0);
  EXPECT_EQ(mem.load<std::int32_t>(start + 4 * 1234), in[1234]);
}

TEST(GlobalMemory, ZeroLengthSpansTouchNothing) {
  GlobalMemory mem;
  const Addr a = mem.alloc(kPageBytes);
  mem.write<double>(a, std::span<const double>{});
  mem.write(a + 17, std::span<const std::uint8_t>{});
  mem.read<double>(a, std::span<double>{});
  EXPECT_EQ(mem.resident_pages(), 0u);
}

TEST(GlobalMemory, UnmaterializedPagesReadZeroAndStayUnmaterialized) {
  GlobalMemory mem;
  const Addr a = mem.alloc(3 * kPageBytes);
  mem.store<std::uint32_t>(a + kPageBytes, 7u);  // only the middle page
  std::vector<std::uint64_t> out(3 * kPageBytes / 8, ~0ULL);
  mem.read<std::uint64_t>(a, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i == kPageBytes / 8 ? 7u : 0u) << "word " << i;
  }
  EXPECT_EQ(mem.resident_pages(), 1u);
}

TEST(GlobalMemory, StoreMaterializesExactlyTouchedPages) {
  GlobalMemory mem;
  const Addr a = mem.alloc(8 * kPageBytes);
  // Ends exactly at a page boundary: one page.
  mem.write<std::uint32_t>(a + kPageBytes - 16, std::vector<std::uint32_t>(4, 1u));
  EXPECT_EQ(mem.resident_pages(), 1u);
  // Eight bytes straddling the boundary of pages 2 and 3: two more.
  mem.store<std::uint64_t>(a + 3 * kPageBytes - 4, 0x1122334455667788ULL);
  EXPECT_EQ(mem.resident_pages(), 3u);
  // A page and a half from inside page 5: pages 5 and 6, not 7.
  mem.write<std::uint16_t>(a + 5 * kPageBytes + 2048,
                           std::vector<std::uint16_t>(3 * kPageBytes / 4, 0));
  EXPECT_EQ(mem.resident_pages(), 5u);
  EXPECT_EQ(mem.load<std::uint64_t>(a + 3 * kPageBytes - 4), 0x1122334455667788ULL);
  EXPECT_EQ(mem.resident_pages(), 5u);
}

TEST(GlobalMemory, LineHelpers) {
  GlobalMemory mem;
  const Addr a = mem.alloc(kPageBytes);
  Line l;
  for (std::size_t i = 0; i < kLineBytes; ++i) l[i] = static_cast<std::uint8_t>(i * 3);
  mem.write_line(a + 192, l);
  EXPECT_EQ(mem.read_line(a + 192 + 17), l);  // any addr within the line
}

TEST(GlobalMemory, AllocationsArePageAlignedAndDisjoint) {
  GlobalMemory mem;
  const Addr a = mem.alloc(100);
  const Addr b = mem.alloc(kPageBytes + 1);
  const Addr c = mem.alloc(10);
  EXPECT_EQ(a % kPageBytes, 0u);
  EXPECT_EQ(b % kPageBytes, 0u);
  EXPECT_EQ(b, a + kPageBytes);
  EXPECT_EQ(c, b + 2 * kPageBytes);
}

// ---------------------------------------------------------------------------
// Bus fabric.
// ---------------------------------------------------------------------------

struct BusHarness {
  Engine engine;
  BusFabric bus{engine, BusFabric::Params{}};
  std::vector<std::pair<EndpointId, Message>> delivered;

  EndpointId add(const std::string& name, bool is_gpu = true) {
    // Capture the endpoint id by slot: endpoints are assigned densely.
    const auto idx = bus.num_endpoints();
    return bus.add_endpoint(name, is_gpu, [this, idx](Message&& m) {
      delivered.emplace_back(EndpointId{static_cast<std::uint32_t>(idx)}, std::move(m));
    });
  }
};

Message make_msg(EndpointId src, EndpointId dst, MsgType type, std::uint32_t payload_bits = 0) {
  Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.payload_bits = payload_bits;
  return m;
}

TEST(Bus, WireSizesFollowFig4) {
  Message read = make_msg(EndpointId{0}, EndpointId{1}, MsgType::kReadReq);
  EXPECT_EQ(read.wire_bytes(), 16u);
  Message ack = make_msg(EndpointId{0}, EndpointId{1}, MsgType::kWriteAck);
  EXPECT_EQ(ack.wire_bytes(), 4u);
  Message data = make_msg(EndpointId{0}, EndpointId{1}, MsgType::kDataReady, 512);
  EXPECT_EQ(data.wire_bytes(), 4u + 64u);
  Message small = make_msg(EndpointId{0}, EndpointId{1}, MsgType::kDataReady, 3);
  EXPECT_EQ(small.wire_bytes(), 4u + 1u);  // payload byte-aligned
  Message write = make_msg(EndpointId{0}, EndpointId{1}, MsgType::kWriteReq, 140);
  EXPECT_EQ(write.wire_bytes(), 16u + 18u);
}

TEST(Bus, SerializesAtTwentyBytesPerCycle) {
  BusHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  // 68-byte Data-Ready takes ceil(68/20) = 4 cycles.
  h.bus.send(make_msg(a, b, MsgType::kDataReady, 512));
  h.engine.run();
  EXPECT_EQ(h.engine.now(), 4u);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.bus.stats().busy_cycles, 4u);
}

TEST(Bus, OneMessageAtATime) {
  BusHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  const EndpointId c = h.add("C");
  // Two 4-cycle messages from different sources: total 8 cycles.
  h.bus.send(make_msg(a, c, MsgType::kDataReady, 512));
  h.bus.send(make_msg(b, c, MsgType::kDataReady, 512));
  h.engine.run();
  EXPECT_EQ(h.engine.now(), 8u);
  EXPECT_EQ(h.delivered.size(), 2u);
}

TEST(Bus, RoundRobinAlternatesSenders) {
  BusHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  const EndpointId c = h.add("C");
  // A queues two messages, B queues one. Order on the wire: A, B, A.
  Message a1 = make_msg(a, c, MsgType::kReadReq);
  a1.id = 1;
  Message a2 = make_msg(a, c, MsgType::kReadReq);
  a2.id = 2;
  Message b1 = make_msg(b, c, MsgType::kReadReq);
  b1.id = 3;
  h.bus.send(a1);
  h.bus.send(a2);
  h.bus.send(b1);
  h.engine.run();
  ASSERT_EQ(h.delivered.size(), 3u);
  EXPECT_EQ(h.delivered[0].second.id, 1u);
  EXPECT_EQ(h.delivered[1].second.id, 3u);  // B slips between A's messages
  EXPECT_EQ(h.delivered[2].second.id, 2u);
}

TEST(Bus, InputBufferBackpressure) {
  BusHarness h;
  const EndpointId a = h.add("A");
  const EndpointId b = h.add("B");
  // Fill B's 4096-byte input buffer with undelivered 68-byte messages:
  // 60 messages = 4080 bytes fit; the 61st must wait until B consumes.
  for (int i = 0; i < 61; ++i) h.bus.send(make_msg(a, b, MsgType::kDataReady, 512));
  h.engine.run();
  EXPECT_EQ(h.delivered.size(), 60u);
  // Consume one; the blocked message flows.
  h.bus.consume(b, 68);
  h.engine.run();
  EXPECT_EQ(h.delivered.size(), 61u);
}

TEST(Bus, ResponsePriorityArbitration) {
  // With response priority on, a queued Data-Ready jumps ahead of an
  // earlier-queued Read request from another endpoint.
  Engine engine;
  BusFabric bus(engine, BusFabric::Params{.response_priority = true});
  std::vector<MsgType> order;
  auto deliver = [&order](Message&& m) { order.push_back(m.type); };
  std::vector<EndpointId> eps;
  for (int i = 0; i < 3; ++i) {
    eps.push_back(bus.add_endpoint("E" + std::to_string(i), true, deliver));
  }
  // Occupy the bus with one message, then queue a request and a response.
  bus.send(make_msg(eps[0], eps[2], MsgType::kReadReq));
  bus.send(make_msg(eps[0], eps[2], MsgType::kWriteReq, 512));  // request, queued first
  bus.send(make_msg(eps[1], eps[2], MsgType::kDataReady, 512)); // response, queued later
  engine.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], MsgType::kDataReady);  // response won arbitration
  EXPECT_EQ(order[2], MsgType::kWriteReq);
}

TEST(Bus, ResponsePriorityFallsBackToRequests) {
  Engine engine;
  BusFabric bus(engine, BusFabric::Params{.response_priority = true});
  int delivered = 0;
  auto deliver = [&delivered](Message&&) { ++delivered; };
  const EndpointId a = bus.add_endpoint("A", true, deliver);
  const EndpointId b = bus.add_endpoint("B", true, deliver);
  // Only requests queued: they must still flow.
  bus.send(make_msg(a, b, MsgType::kReadReq));
  bus.send(make_msg(a, b, MsgType::kWriteReq, 64));
  engine.run();
  EXPECT_EQ(delivered, 2);
}

TEST(Bus, OutOfOrderResponsesMatchedById) {
  // Responses may return in any order; the ids keep them matched (this is
  // what the 16-bit Msg ID / Rsp ID fields are for).
  Engine engine;
  BusFabric bus(engine, BusFabric::Params{});
  std::vector<std::uint16_t> ids;
  const EndpointId a =
      bus.add_endpoint("A", true, [&ids](Message&& m) { ids.push_back(m.id); });
  const EndpointId b = bus.add_endpoint("B", true, [](Message&&) {});
  (void)b;
  Message m1 = make_msg(b, a, MsgType::kDataReady, 512);
  m1.id = 7;
  Message m2 = make_msg(b, a, MsgType::kDataReady, 4);
  m2.id = 3;
  bus.send(m2);
  bus.send(m1);
  engine.run();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 3u);
  EXPECT_EQ(ids[1], 7u);
}

TEST(Bus, InterGpuAccountingExcludesCpu) {
  BusHarness h;
  const EndpointId cpu = h.add("CPU", /*is_gpu=*/false);
  const EndpointId g0 = h.add("G0");
  const EndpointId g1 = h.add("G1");
  h.bus.send(make_msg(cpu, g0, MsgType::kWriteReq, 512));
  h.bus.send(make_msg(g0, g1, MsgType::kReadReq));
  h.engine.run();
  EXPECT_EQ(h.bus.stats().total_messages(), 2u);
  EXPECT_EQ(h.bus.stats().inter_gpu_messages, 1u);
  EXPECT_EQ(h.bus.stats().inter_gpu_wire_bytes, 16u);
}

TEST(Bus, PayloadBitsAccounting) {
  BusHarness h;
  const EndpointId g0 = h.add("G0");
  const EndpointId g1 = h.add("G1");
  h.bus.send(make_msg(g0, g1, MsgType::kDataReady, 140));
  h.engine.run();
  EXPECT_EQ(h.bus.stats().inter_gpu_payload_raw_bits, 512u);
  EXPECT_EQ(h.bus.stats().inter_gpu_payload_wire_bits, 140u);
}

}  // namespace
}  // namespace mgcomp
