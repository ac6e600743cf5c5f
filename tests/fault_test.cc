// Link-reliability layer: CRC integrity, deterministic fault injection,
// retransmission/duplicate-suppression protocol, degrade-to-raw policy
// fallback, the stall watchdog, and the fail-stop fault domains (episode
// parsing/scheduling, health state machine, tick-exact retry backoff).
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "collective/rank_space.h"
#include "common/crc32.h"
#include "common/types.h"
#include "compression/simd/dispatch.h"
#include "core/system.h"
#include "fault/episodes.h"
#include "fault/fault_injector.h"
#include "fault/health.h"
#include "sim/engine.h"
#include "workloads/all_workloads.h"

namespace mgcomp {
namespace {

// ---------------------------------------------------------------------------
// CRC-32 and message integrity.
// ---------------------------------------------------------------------------

TEST(Crc32, MatchesKnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32::of("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32::of("", 0), 0x00000000u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  const char buf[] = "adaptive inter-GPU compression";
  Crc32 inc;
  inc.update(buf, 10).update(buf + 10, sizeof(buf) - 1 - 10);
  EXPECT_EQ(inc.value(), Crc32::of(buf, sizeof(buf) - 1));
}

Message payload_message() {
  Message m;
  m.type = MsgType::kDataReady;
  m.id = 0x1234;
  m.src = EndpointId{1};
  m.dst = EndpointId{2};
  m.addr = 0x40;
  m.payload_bits = 500;
  for (std::size_t i = 0; i < kLineBytes; ++i) m.data[i] = static_cast<std::uint8_t>(i);
  m.crc = message_crc(m);
  return m;
}

Message header_only_message() {
  Message m;
  m.type = MsgType::kReadReq;
  m.id = 0x0BEE;
  m.src = EndpointId{3};
  m.dst = EndpointId{0};
  m.addr = 0x1000;
  m.crc = message_crc(m);
  return m;
}

Message bulk_message() {
  Message m;
  m.type = MsgType::kWriteReq;
  m.id = 0x0FAB;
  m.src = EndpointId{2};
  m.dst = EndpointId{1};
  m.addr = 0x8000;
  m.length = kPageBytes;
  m.payload_bits = kPageBytes * 8;
  m.block_alg = BlockCodecId::kLzss;
  m.block.resize(kPageBytes);
  for (std::size_t i = 0; i < kPageBytes; ++i) m.block[i] = static_cast<std::uint8_t>(i * 13);
  m.crc = message_crc(m);
  return m;
}

TEST(MessageCrc, DetectsEveryInjectedBitPosition) {
  // Sweep flips across the whole wire image (header and payload) of a line
  // message, a header-only request and a 4 KB bulk write: each one must
  // break the stamped digest, whichever SIMD backend computes it.
  const simd::Backend prev = simd::active_backend();
  for (const simd::Backend b : simd::available_backends()) {
    ASSERT_TRUE(simd::set_backend(b));
    for (const Message& clean : {payload_message(), header_only_message(), bulk_message()}) {
      ASSERT_EQ(clean.crc, message_crc(clean));
      const std::uint32_t wire_bits = clean.wire_bytes() * 8;
      for (std::uint32_t bit = 0; bit < wire_bits; bit += 7) {
        Message m = clean;
        FaultInjector::corrupt(m, bit);
        EXPECT_NE(m.crc, message_crc(m))
            << simd::backend_name(b) << ": flip at wire bit " << bit << " of a "
            << msg_type_name(clean.type) << " went undetected";
      }
    }
  }
  ASSERT_TRUE(simd::set_backend(prev));
}

TEST(MessageCrc, HeaderFlipLandsInMsgId) {
  Message m = payload_message();
  FaultInjector::corrupt(m, /*bit=*/3);  // below header_bits()
  EXPECT_NE(m.id, 0x1234);
  EXPECT_EQ(m.data[3], 3);  // payload untouched
}

// ---------------------------------------------------------------------------
// FaultInjector determinism and accounting.
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameDecisionStream) {
  FaultParams p;
  p.bit_error_rate = 1e-4;
  p.drop_rate = 0.05;
  p.duplicate_rate = 0.05;
  p.delay_rate = 0.1;
  p.seed = 42;
  FaultInjector a(p);
  FaultInjector b(p);
  const Message m = payload_message();
  for (int i = 0; i < 2000; ++i) {
    const FaultDecision da = a.on_transmit(m);
    const FaultDecision db = b.on_transmit(m);
    ASSERT_EQ(da.drop, db.drop);
    ASSERT_EQ(da.duplicate, db.duplicate);
    ASSERT_EQ(da.extra_delay, db.extra_delay);
    ASSERT_EQ(da.flip_bit, db.flip_bit);
  }
  EXPECT_EQ(a.stats().total_faults(), b.stats().total_faults());
  EXPECT_GT(a.stats().total_faults(), 0u);
}

TEST(FaultInjector, AllZeroRatesNeverFault) {
  FaultInjector fi{FaultParams{}};
  EXPECT_FALSE(fi.params().any());
  const Message m = payload_message();
  for (int i = 0; i < 100; ++i) {
    const FaultDecision d = fi.on_transmit(m);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, 0u);
    EXPECT_EQ(d.flip_bit, -1);
  }
  EXPECT_EQ(fi.stats().total_faults(), 0u);
}

TEST(FaultInjector, DropPreemptsOtherFaults) {
  FaultParams p;
  p.drop_rate = 1.0;
  p.bit_error_rate = 0.5;
  p.duplicate_rate = 1.0;
  FaultInjector fi(p);
  const FaultDecision d = fi.on_transmit(payload_message());
  EXPECT_TRUE(d.drop);
  EXPECT_FALSE(d.duplicate);
  EXPECT_EQ(d.flip_bit, -1);
}

// ---------------------------------------------------------------------------
// System-level protocol behavior.
// ---------------------------------------------------------------------------

SystemConfig faulty_config(double ber, double drop = 0.0, double dup = 0.0) {
  SystemConfig cfg;
  cfg.policy = make_adaptive_policy(AdaptiveParams{.lambda = 6.0});
  cfg.fault.bit_error_rate = ber;
  cfg.fault.drop_rate = drop;
  cfg.fault.duplicate_rate = dup;
  // Small timeouts keep recovery-dominated tests fast.
  cfg.retry.timeout = 4096;
  cfg.retry.timeout_cap = 1u << 16;
  return cfg;
}

TEST(FaultSystem, SameSeedIsBitReproducibleIncludingRecoveryCounters) {
  auto run_once = [] {
    auto wl = make_workload("MT", 0.2);
    return run_workload(faulty_config(1e-5, 0.001, 0.001), *wl);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.exec_ticks, b.exec_ticks);
  EXPECT_EQ(a.bus.total_messages(), b.bus.total_messages());
  EXPECT_EQ(a.link.crc_failures, b.link.crc_failures);
  EXPECT_EQ(a.link.fast_retransmits, b.link.fast_retransmits);
  EXPECT_EQ(a.link.timeout_retransmits, b.link.timeout_retransmits);
  EXPECT_EQ(a.link.duplicates_suppressed, b.link.duplicates_suppressed);
  EXPECT_EQ(a.faults.total_faults(), b.faults.total_faults());
  EXPECT_GT(a.faults.total_faults(), 0u);  // the run actually exercised faults
}

TEST(FaultSystem, ArmedButQuietReliabilityLayerIsZeroCost) {
  // Timers armed (fault.any() is true) but the rate is so small no fault
  // ever fires: measured time must match the lossless run exactly, proving
  // cancelled timeout events never stretch the clock.
  auto run_with = [](double dup_rate) {
    SystemConfig cfg;
    cfg.policy = make_static_policy(CodecId::kBdi);
    cfg.fault.duplicate_rate = dup_rate;
    auto wl = make_workload("BS", 0.1);
    return run_workload(std::move(cfg), *wl);
  };
  const RunResult quiet = run_with(1e-15);
  ASSERT_EQ(quiet.faults.total_faults(), 0u);
  const RunResult lossless = run_with(0.0);
  EXPECT_EQ(quiet.exec_ticks, lossless.exec_ticks);
  EXPECT_EQ(quiet.bus.total_messages(), lossless.bus.total_messages());
  EXPECT_EQ(quiet.link.retransmissions(), 0u);
}

TEST(FaultSystem, DuplicatedDeliveriesAreSuppressed) {
  auto wl = make_workload("MT", 0.2);
  const RunResult r = run_workload(faulty_config(0.0, 0.0, /*dup=*/0.05), *wl);
  EXPECT_GT(r.faults.duplicates, 0u);
  EXPECT_GT(r.link.duplicates_suppressed, 0u);
  // Every request still completed exactly once: requests and responses
  // stay paired even though the wire carried extra copies.
  EXPECT_EQ(r.link.hard_failures, 0u);
  EXPECT_LT(r.goodput_fraction(), 1.0);
}

TEST(FaultSystem, SurvivesInputBufferExhaustionUnderRetransmissionBursts) {
  // Tiny input buffers (room for ~2 payload messages) + drops + duplicates:
  // retransmission bursts constantly bounce off full buffers. The run must
  // still drain without deadlock or watchdog abort.
  SystemConfig cfg = faulty_config(1e-5, 0.01, 0.02);
  cfg.bus.input_buffer_bytes = 192;
  auto wl = make_workload("BS", 0.1);
  const RunResult r = run_workload(std::move(cfg), *wl);
  EXPECT_GT(r.link.retransmissions(), 0u);
  EXPECT_EQ(r.link.hard_failures, 0u);  // everything recovered, nothing gave up
}

TEST(FaultSystem, HardFailureSurfacesLinkErrorInsteadOfAborting) {
  // A fully dead link: every request exhausts its retry budget, completes
  // via the hard-failure path, and the run finishes with structured
  // diagnostics instead of hanging or aborting.
  SystemConfig cfg;
  cfg.policy = make_no_compression_policy();
  cfg.fault.drop_rate = 1.0;
  cfg.retry.timeout = 512;
  cfg.retry.timeout_cap = 2048;
  cfg.retry.max_retries = 2;
  auto wl = make_workload("MT", 0.1);
  const RunResult r = run_workload(std::move(cfg), *wl);
  EXPECT_GT(r.link.hard_failures, 0u);
  ASSERT_FALSE(r.link_errors.empty());
  EXPECT_EQ(r.link_errors.front().retries, 2u);
  EXPECT_LE(r.link_errors.size(), Collector::kMaxLinkErrors);
  EXPECT_EQ(r.goodput_fraction(), 0.0);  // every transmitted byte was dropped
}

TEST(FaultSystem, AllWorkloadsProduceBitIdenticalOutputUnderLowBer) {
  // Functional output is settled at trace-generation time, so a lossy link
  // may cost time and bandwidth but never correctness. Compare a digest of
  // every memory region after a BER=1e-6 run against the lossless run.
  auto digest_after_run = [](std::string_view abbrev, double ber) {
    SystemConfig cfg;
    cfg.policy = make_adaptive_policy(AdaptiveParams{.lambda = 6.0});
    cfg.fault.bit_error_rate = ber;
    cfg.retry.timeout = 4096;
    auto wl = make_workload(abbrev, 0.05);
    MultiGpuSystem system(std::move(cfg));
    (void)system.run(*wl);  // run() aborts internally if verify() fails
    Crc32 crc;
    for (const auto& region : system.memory().regions()) {
      for (Addr a = region.base; a < region.base + region.bytes; a += kLineBytes) {
        const Line l = system.memory().read_line(a);
        crc.update(l.data(), l.size());
      }
    }
    return crc.value();
  };
  for (const std::string_view abbrev : workload_abbrevs()) {
    EXPECT_EQ(digest_after_run(abbrev, 1e-6), digest_after_run(abbrev, 0.0))
        << "functional divergence for " << abbrev;
  }
}

TEST(FaultSystem, AdaptivePolicyDegradesToRawAndReprobes) {
  // A very lossy link must trip the degrade mechanism; after the cool-down
  // the policy re-probes (sampling continues), so compressed transfers do
  // not stop forever.
  SystemConfig cfg;
  AdaptiveParams ap;
  ap.lambda = 6.0;
  ap.degrade_window = 32;
  ap.degrade_error_threshold = 0.02;
  ap.degrade_cooldown_transfers = 64;
  cfg.policy = make_adaptive_policy(ap);
  cfg.fault.bit_error_rate = 3e-4;
  cfg.retry.timeout = 4096;
  auto wl = make_workload("MT", 0.3);
  const RunResult r = run_workload(std::move(cfg), *wl);
  EXPECT_GT(r.policy_stats.degrade_events, 0u);
  EXPECT_GT(r.policy_stats.degraded_transfers, 0u);
  // Re-probe: sampling resumed after a cool-down, so more than one vote
  // was taken over the run.
  EXPECT_GE(r.policy_stats.votes_taken, 2u);
}

TEST(FaultSystem, NackFastRetransmitBeatsTimeoutRecovery) {
  // With corruption only (no drops), payload errors are NACKed, so most
  // recovery should be NACK-driven fast retransmits or owner-side replays
  // rather than timeout expiries.
  auto wl = make_workload("MT", 0.2);
  const RunResult r = run_workload(faulty_config(5e-5), *wl);
  ASSERT_GT(r.link.crc_failures, 0u);
  EXPECT_GT(r.link.nacks_sent, 0u);
  EXPECT_GT(r.link.fast_retransmits + r.link.replay_hits, 0u);
}

// ---------------------------------------------------------------------------
// Watchdog and drain diagnostics (death tests).
// ---------------------------------------------------------------------------

using FaultSystemDeathTest = ::testing::Test;

TEST(FaultSystemDeathTest, WatchdogDumpsDiagnosticsWhenNothingMoves) {
  // Dead link + a first timeout far beyond the watchdog period: the fabric
  // moves no message for a full interval while requests are outstanding.
  EXPECT_DEATH(
      {
        SystemConfig cfg;
        cfg.fault.drop_rate = 1.0;
        cfg.retry.timeout = 1u << 30;
        cfg.retry.timeout_cap = 1u << 30;  // cap must cover the base timeout
        cfg.watchdog_interval = 1u << 16;
        auto wl = make_workload("MT", 0.1);
        (void)run_workload(std::move(cfg), *wl);
      },
      "watchdog: no fabric progress");
}

TEST(FaultSystemDeathTest, DegenerateRetryBackoffCapIsRejected) {
  // A backoff cap below the base timeout clamps every armed timer to the
  // cap; with cap == 0 the timeout fires in the same tick as the send and
  // the engine retransmits forever. The configuration is rejected at
  // construction instead of livelocking the run.
  EXPECT_DEATH(
      {
        SystemConfig cfg;
        cfg.fault.bit_error_rate = 1e-6;
        cfg.retry.timeout = 1024;
        cfg.retry.timeout_cap = 0;
        auto wl = make_workload("MT", 0.05);
        (void)run_workload(std::move(cfg), *wl);
      },
      "timeout_cap must be >= timeout");
}

TEST(FaultSystemDeathTest, DrainFailureDumpsPerGpuOutstanding) {
  // Retransmission disabled entirely: dropped responses leave requests
  // pending forever and the event queue empties -> diagnostic abort, not a
  // silent hang.
  EXPECT_DEATH(
      {
        SystemConfig cfg;
        cfg.fault.drop_rate = 1.0;
        cfg.retry.timeout = 0;  // no retransmission
        cfg.watchdog_interval = 0;
        auto wl = make_workload("MT", 0.1);
        (void)run_workload(std::move(cfg), *wl);
      },
      "kernel did not drain");
}

// ---------------------------------------------------------------------------
// Retransmission backoff: the exponential schedule is tick-exact.
// ---------------------------------------------------------------------------

/// Drives one remote_read from GPU 0 to a GPU-1-owned line on a fully dead
/// link and returns (hard-fail tick, backoff_cycles). With drop_rate = 1.0
/// nothing else perturbs the clock, so the done(false) tick is exactly the
/// sum of the armed timeouts.
std::pair<Tick, Tick> dead_link_hard_fail(Tick timeout, Tick cap, std::uint32_t retries) {
  SystemConfig cfg;
  cfg.num_gpus = 2;
  cfg.policy = make_no_compression_policy();
  cfg.fault.drop_rate = 1.0;
  cfg.retry.timeout = timeout;
  cfg.retry.timeout_cap = cap;
  cfg.retry.max_retries = retries;
  MultiGpuSystem sys(std::move(cfg));
  const RankSpace space(sys.memory(), sys.address_map(), 1);
  bool called = false;
  bool ok = true;
  Tick done_at = 0;
  sys.gpu(0).rdma().remote_read(space.line_addr(1, 0), [&](bool k) {
    called = true;
    ok = k;
    done_at = sys.engine().now();
  });
  sys.engine().run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);  // the retry budget must have been exhausted
  return {done_at, sys.collect_result("backoff").link.backoff_cycles};
}

TEST(RetryBackoff, ExponentialScheduleIsTickExact) {
  // Timeout T = 512, factor 2, cap far away, 3 retries: the request is
  // declared dead at T + 2T + 4T + 8T, and the backoff counter holds the
  // waiting added beyond the base timeout on each re-arm.
  const auto [fail_tick, backoff] = dead_link_hard_fail(512, 1u << 20, 3);
  EXPECT_EQ(fail_tick, 512u + 1024u + 2048u + 4096u);
  EXPECT_EQ(backoff, (1024u - 512u) + (2048u - 512u) + (4096u - 512u));
}

TEST(RetryBackoff, TimeoutCapClampsTheSchedule) {
  // T = 1024 doubles to 2048, then 4096 hits the 3000 ceiling: every later
  // arm waits exactly the cap. Hard fail at 1024 + 2048 + 3*3000.
  const auto [fail_tick, backoff] = dead_link_hard_fail(1024, 3000, 4);
  EXPECT_EQ(fail_tick, 1024u + 2048u + 3000u * 3);
  EXPECT_EQ(backoff, (2048u - 1024u) + (3000u - 1024u) * 3);
}

// ---------------------------------------------------------------------------
// Fail-stop episodes: spec parsing and the scheduler's ground truth.
// ---------------------------------------------------------------------------

TEST(EpisodeParser, ParsesEveryClauseKindWithPaddingAndBothSeparators) {
  std::vector<FaultEpisode> eps;
  std::string err;
  ASSERT_TRUE(parse_fault_episodes(" down:0-1@100+200 ; flap:1-2@50+10x3/100 , gpufail:3@500",
                                   &eps, &err))
      << err;
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0].kind, EpisodeKind::kLinkDown);
  EXPECT_EQ(eps[0].a, 0u);
  EXPECT_EQ(eps[0].b, 1u);
  EXPECT_EQ(eps[0].start, 100u);
  EXPECT_EQ(eps[0].duration, 200u);
  EXPECT_EQ(eps[1].kind, EpisodeKind::kLinkFlap);
  EXPECT_EQ(eps[1].count, 3u);
  EXPECT_EQ(eps[1].period, 100u);
  EXPECT_EQ(eps[2].kind, EpisodeKind::kGpuFailStop);
  EXPECT_EQ(eps[2].a, 3u);
  EXPECT_EQ(eps[2].start, 500u);
}

TEST(EpisodeParser, RejectsMalformedSpecsWithAReason) {
  const struct {
    const char* spec;
    const char* why;
  } kBad[] = {
      {"", "empty"},
      {" ; , ", "empty"},
      {"explode:0-1@0+1", "expected down:/flap:/gpufail:"},
      {"down:1-1@0+10", "endpoints must differ"},
      {"down:0-1@5+0", "duration must be nonzero"},
      {"down:0-1@5", "expected +DURATION"},
      {"down:0@5+10", "expected A-B GPU pair"},
      {"flap:0-1@0+100x2/100", "period must exceed duration"},
      {"flap:0-1@0+100x0/300", "count must be nonzero"},
      {"flap:0-1@0+100x2", "expected /PERIOD"},
      {"gpufail:2", "expected @TICK"},
      {"gpufail:2@40+5", "trailing garbage"},
      {"down:0-1@0+10junk", "trailing garbage"},
      {"down:0-1@0+10;explode:2-3@0+1", "expected down:/flap:/gpufail:"},
  };
  for (const auto& bad : kBad) {
    std::vector<FaultEpisode> eps;
    std::string err;
    EXPECT_FALSE(parse_fault_episodes(bad.spec, &eps, &err)) << bad.spec;
    EXPECT_TRUE(eps.empty()) << bad.spec;  // a rejected spec appends nothing
    EXPECT_NE(err.find(bad.why), std::string::npos)
        << "spec '" << bad.spec << "' produced error '" << err << "'";
  }
}

/// Builds a two-endpoint scheduler + monitor pair over `engine` for the
/// health state-machine tests (GPU g maps to endpoint g).
struct HealthRig {
  HealthRig(Engine& engine, const char* spec, HealthParams hp)
      : sched(engine, parse(spec), 2, 2, [](std::uint32_t g) { return EndpointId{g}; }),
        health(engine, 2, hp, &sched) {
    sched.bind(&health);
    sched.schedule_all();
  }
  static std::vector<FaultEpisode> parse(const char* spec) {
    std::vector<FaultEpisode> eps;
    std::string err;
    EXPECT_TRUE(parse_fault_episodes(spec, &eps, &err)) << err;
    return eps;
  }
  EpisodeScheduler sched;
  HealthMonitor health;
};

TEST(HealthMonitorTest, DownProbeRecoverUpCycle) {
  // Wire dead over [100, 300). Errors reported at t=150 walk the machine
  // UP -> SUSPECT -> DOWN; probes at 270 (still dead) and 390 (alive) find
  // the recovery; up_after successes complete the round trip to UP.
  Engine engine;
  HealthParams hp;
  hp.suspect_after = 1;
  hp.down_after = 3;
  hp.up_after = 2;
  hp.probe_interval = 120;
  hp.probe_budget = 8;
  HealthRig rig(engine, "down:0-1@100+200", hp);
  const EndpointId a{0};
  const EndpointId b{1};
  engine.schedule_at(150, [&] {
    ASSERT_TRUE(rig.sched.wire_dead(a, b));
    rig.health.on_link_error(a, b);
    EXPECT_EQ(rig.health.link_state(a, b), HealthState::kSuspect);
    rig.health.on_link_error(a, b);
    EXPECT_EQ(rig.health.link_state(a, b), HealthState::kSuspect);
    rig.health.on_link_error(a, b);
    EXPECT_TRUE(rig.health.link_down(a, b));
    EXPECT_FALSE(rig.health.link_usable(a, b));
    // The watchdog's dump names the believed state and the oracle's view.
    const std::string dump = rig.health.dump();
    EXPECT_NE(dump.find("DOWN"), std::string::npos) << dump;
    EXPECT_NE(dump.find("wire=dead"), std::string::npos) << dump;
  });
  engine.run();
  EXPECT_EQ(rig.health.link_state(a, b), HealthState::kRecovered);
  EXPECT_EQ(rig.health.stats().link_suspect, 1u);
  EXPECT_EQ(rig.health.stats().link_down, 1u);
  EXPECT_EQ(rig.health.stats().link_recovered, 1u);
  EXPECT_EQ(rig.health.stats().probes_sent, 2u);
  rig.health.on_link_success(a, b);
  EXPECT_EQ(rig.health.link_state(a, b), HealthState::kRecovered);
  rig.health.on_link_success(a, b);  // up_after = 2
  EXPECT_EQ(rig.health.link_state(a, b), HealthState::kUp);
  EXPECT_EQ(rig.health.stats().link_up, 1u);
  EXPECT_NE(rig.health.dump().find("all links and endpoints UP"), std::string::npos);
}

TEST(HealthMonitorTest, ProbeBudgetExhaustionMakesDownFinalAndTerminates) {
  // The wire stays dead longer than the whole probe budget: every probe
  // fails, the chain ends, DOWN is final — and engine.run() still returns
  // (bounded probes are what guarantee termination).
  Engine engine;
  HealthParams hp;
  hp.suspect_after = 1;
  hp.down_after = 2;
  hp.probe_interval = 50;
  hp.probe_budget = 3;
  HealthRig rig(engine, "down:0-1@0+100000", hp);
  const EndpointId a{0};
  const EndpointId b{1};
  engine.schedule_at(10, [&] {
    rig.health.on_link_error(a, b);
    rig.health.on_link_error(a, b);
    ASSERT_TRUE(rig.health.link_down(a, b));
  });
  const Tick end = engine.run();
  EXPECT_EQ(end, 100000u);  // the window-end event, not a runaway probe chain
  EXPECT_TRUE(rig.health.link_down(a, b));
  EXPECT_EQ(rig.health.stats().probes_sent, 3u);
  EXPECT_EQ(rig.health.stats().link_recovered, 0u);
}

TEST(HealthMonitorTest, GpuFailStopHeartbeatChainDeclaresDown) {
  // Fail-stop at t=500: misses accumulate every heartbeat_interval; the
  // first flags SUSPECT, the configured count flags DOWN (terminal).
  Engine engine;
  HealthParams hp;
  hp.heartbeat_interval = 100;
  hp.heartbeat_misses = 3;
  HealthRig rig(engine, "gpufail:1@500", hp);
  const EndpointId gone{1};
  engine.schedule_at(650, [&] {
    EXPECT_EQ(rig.health.gpu_state(gone), HealthState::kSuspect);
    EXPECT_FALSE(rig.health.endpoint_down(gone));
  });
  engine.run();
  EXPECT_TRUE(rig.sched.endpoint_dead(gone));
  EXPECT_TRUE(rig.health.endpoint_down(gone));
  EXPECT_FALSE(rig.health.link_usable(EndpointId{0}, gone));
  EXPECT_EQ(rig.health.stats().gpu_suspect, 1u);
  EXPECT_EQ(rig.health.stats().gpu_down, 1u);
  EXPECT_EQ(rig.health.stats().heartbeat_misses, 3u);
  EXPECT_NE(rig.health.dump().find("endpoint EP1 DOWN"), std::string::npos);
}

TEST(FaultSystemDeathTest, OutOfRangeEpisodeGpuIndexRejectedAtConstruction) {
  // The parser cannot know the system size; the scheduler range-checks at
  // construction instead of faulting mid-run.
  EXPECT_DEATH(
      {
        SystemConfig cfg;  // default num_gpus = 4
        std::string err;
        ASSERT_TRUE(parse_fault_episodes("down:0-7@0+100", &cfg.episodes, &err));
        MultiGpuSystem sys(std::move(cfg));
      },
      "fault episode");
}

TEST(FaultSystemDeathTest, WatchdogDumpIncludesHealthStates) {
  // GPU 0's every wire is dead for the whole run and the retry timeout is
  // beyond the watchdog period, so nothing moves: the stall dump must now
  // include the HealthMonitor section (believed state + oracle view), which
  // is how an operator tells a dead wire from a deadlocked protocol.
  EXPECT_DEATH(
      {
        SystemConfig cfg;
        std::string err;
        ASSERT_TRUE(parse_fault_episodes(
            "down:0-1@0+2000000000;down:0-2@0+2000000000;down:0-3@0+2000000000",
            &cfg.episodes, &err));
        cfg.retry.timeout = 1u << 30;
        cfg.retry.timeout_cap = 1u << 30;
        cfg.watchdog_interval = 1u << 16;
        auto wl = make_workload("MT", 0.1);
        (void)run_workload(std::move(cfg), *wl);
      },
      "wire=dead");
}

}  // namespace
}  // namespace mgcomp
