// Observability layer: latency histograms, the event tracer's ring/export,
// and the system-level guarantees — a disabled tracer changes nothing, and
// an enabled one tells the truth about policy phases and counters.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.h"
#include "fault/episodes.h"
#include "obs/latency_histogram.h"
#include "obs/tracer.h"
#include "sim/engine.h"
#include "workloads/all_workloads.h"

namespace mgcomp {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON tooling (validator + flat event extractor). Hand-rolled on
// purpose: the repo has no JSON dependency, and the trace exporter writes a
// narrow dialect this fully covers.
// ---------------------------------------------------------------------------

struct JsonCursor {
  const char* p;
  const char* end;

  void ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  [[nodiscard]] bool eat(char c) {
    ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
};

bool parse_value(JsonCursor& c);

bool parse_string(JsonCursor& c) {
  if (!c.eat('"')) return false;
  while (c.p < c.end) {
    const char ch = *c.p++;
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.p >= c.end) return false;
      const char esc = *c.p++;
      if (esc == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (c.p >= c.end || std::isxdigit(static_cast<unsigned char>(*c.p)) == 0)
            return false;
          ++c.p;
        }
      } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' && esc != 'f' &&
                 esc != 'n' && esc != 'r' && esc != 't') {
        return false;
      }
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      return false;
    }
  }
  return false;
}

bool parse_number(JsonCursor& c) {
  const char* start = c.p;
  if (c.p < c.end && *c.p == '-') ++c.p;
  while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p)) != 0) ++c.p;
  if (c.p < c.end && *c.p == '.') {
    ++c.p;
    while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p)) != 0) ++c.p;
  }
  if (c.p < c.end && (*c.p == 'e' || *c.p == 'E')) {
    ++c.p;
    if (c.p < c.end && (*c.p == '+' || *c.p == '-')) ++c.p;
    while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p)) != 0) ++c.p;
  }
  return c.p > start;
}

bool parse_value(JsonCursor& c) {
  c.ws();
  if (c.p >= c.end) return false;
  switch (*c.p) {
    case '{': {
      ++c.p;
      if (c.eat('}')) return true;
      do {
        if (!parse_string(c)) return false;
        if (!c.eat(':')) return false;
        if (!parse_value(c)) return false;
      } while (c.eat(','));
      return c.eat('}');
    }
    case '[': {
      ++c.p;
      if (c.eat(']')) return true;
      do {
        if (!parse_value(c)) return false;
      } while (c.eat(','));
      return c.eat(']');
    }
    case '"':
      return parse_string(c);
    case 't':
      if (c.end - c.p >= 4 && std::string_view(c.p, 4) == "true") {
        c.p += 4;
        return true;
      }
      return false;
    case 'f':
      if (c.end - c.p >= 5 && std::string_view(c.p, 5) == "false") {
        c.p += 5;
        return true;
      }
      return false;
    case 'n':
      if (c.end - c.p >= 4 && std::string_view(c.p, 4) == "null") {
        c.p += 4;
        return true;
      }
      return false;
    default:
      return parse_number(c);
  }
}

bool is_valid_json(const std::string& s) {
  JsonCursor c{s.data(), s.data() + s.size()};
  if (!parse_value(c)) return false;
  c.ws();
  return c.p == c.end;
}

/// Splits the "traceEvents" array into its top-level object strings.
/// The exporter never nests objects more than one level (the args map).
std::vector<std::string> event_objects(const std::string& json) {
  std::vector<std::string> out;
  const std::size_t arr = json.find("\"traceEvents\":[");
  if (arr == std::string::npos) return out;
  int depth = 0;
  std::size_t start = 0;
  bool in_string = false;
  for (std::size_t i = arr; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{') {
      if (depth++ == 0) start = i;
    } else if (ch == '}') {
      if (--depth == 0) out.push_back(json.substr(start, i - start + 1));
    } else if (ch == ']' && depth == 0) {
      break;
    }
  }
  return out;
}

/// Value of `"key":` inside a flat event object; strings lose their quotes.
std::string field(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = obj.find(needle);
  if (at == std::string::npos) return {};
  std::size_t v = at + needle.size();
  if (obj[v] == '"') {
    const std::size_t close = obj.find('"', v + 1);
    return obj.substr(v + 1, close - v - 1);
  }
  std::size_t end = v;
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}') ++end;
  return obj.substr(v, end - v);
}

// ---------------------------------------------------------------------------
// LatencyHistogram.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, CountsMeanAndMax) {
  LatencyHistogram h;
  for (const Tick t : {100u, 200u, 400u, 800u}) h.record(t);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.max(), 800u);
  EXPECT_DOUBLE_EQ(h.mean(), 375.0);
}

TEST(LatencyHistogram, PercentilesAreOrderedAndBounded) {
  LatencyHistogram h;
  for (Tick t = 1; t <= 1000; ++t) h.record(t);
  const double p50 = h.percentile(0.50);
  const double p95 = h.percentile(0.95);
  const double p99 = h.percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  // Log2 buckets promise a factor-sqrt(2) bound on the reported quantile.
  EXPECT_GE(p50, 500.0 / 1.4143);
  EXPECT_LE(p50, 500.0 * 1.4143);
}

TEST(LatencyHistogram, ZeroAndHugeValues) {
  LatencyHistogram h;
  h.record(0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
  h.record(Tick{1} << 40);
  EXPECT_EQ(h.max(), Tick{1} << 40);
  EXPECT_GT(h.percentile(1.0), 0.0);
}

TEST(LatencyHistogram, MergePoolsSamples) {
  LatencyHistogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(LatencyHistogram, EmptyIsAllZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

// ---------------------------------------------------------------------------
// Tracer ring and export.
// ---------------------------------------------------------------------------

TEST(Tracer, ExportIsValidJsonWithNamedTracks) {
  Engine engine;
  Tracer tracer(engine, 64);
  tracer.set_track_name(kFabricTrack, "fabric");
  tracer.set_track_name(endpoint_track(1), "GPU0");
  tracer.span(kFabricTrack, "DataReady", "fabric", 0, 10, 84);
  tracer.instant(endpoint_track(1), "crc_reject", "link", 84);
  tracer.counter(endpoint_track(1), "in_buffer_bytes", 128.0);
  const std::string json = tracer.export_json();
  ASSERT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"GPU0\""), std::string::npos);
  // Counter names carry the track label so per-endpoint samples of the
  // same metric land on distinct Perfetto counter tracks.
  EXPECT_NE(json.find("\"in_buffer_bytes/GPU0\""), std::string::npos);
}

TEST(Tracer, RingEvictsOldestAndCountsDrops) {
  Engine engine;
  Tracer tracer(engine, 4);
  for (std::uint64_t i = 0; i < 10; ++i) tracer.instant(0, "ev", "t", i);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::string json = tracer.export_json();
  ASSERT_TRUE(is_valid_json(json));
  // Only the newest four survive, oldest first.
  std::vector<std::string> args;
  for (const std::string& obj : event_objects(json)) {
    if (field(obj, "ph") == "i") args.push_back(field(obj, "args"));
  }
  ASSERT_EQ(args.size(), 4u);
  EXPECT_NE(args.front().find("6"), std::string::npos);
  EXPECT_NE(args.back().find("9"), std::string::npos);
}

TEST(Tracer, TimestampsExportAsLosslessMicroseconds) {
  Engine engine;
  Tracer tracer(engine, 8);
  tracer.span(0, "s", "c", 1, 1234567);  // 1 ns .. 1.234567 ms
  const std::string json = tracer.export_json();
  EXPECT_NE(json.find("\"ts\":0.001"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1234.566"), std::string::npos);
}

TEST(TracerDeathTest, RejectsInvertedSpanAndZeroCapacity) {
  Engine engine;
  EXPECT_DEATH({ Tracer t(engine, 0); }, "capacity must be positive");
  Tracer tracer(engine, 8);
  EXPECT_DEATH(tracer.span(0, "bad", "c", 10, 5), "span ends before it starts");
}

// ---------------------------------------------------------------------------
// System-level: zero-cost when disabled, truthful when enabled.
// ---------------------------------------------------------------------------

SystemConfig traced_config(std::size_t trace_events, double ber = 0.0) {
  SystemConfig cfg;
  cfg.policy = make_adaptive_policy(AdaptiveParams{.lambda = 6.0});
  cfg.fault.bit_error_rate = ber;
  cfg.retry.timeout = 4096;
  cfg.trace_events = trace_events;
  return cfg;
}

/// Every observable number of a run that must not move when tracing is
/// toggled. Energies are formatted as hex floats: bit-identical, not just
/// close.
std::string run_digest(const RunResult& r) {
  char buf[64];
  std::string d;
  auto add = [&d](std::uint64_t v) { d += std::to_string(v) + ","; };
  add(r.exec_ticks);
  add(r.bus.total_messages());
  add(r.bus.total_wire_bytes());
  add(r.bus.busy_cycles);
  add(r.bus.inter_gpu_messages);
  add(r.bus.inter_gpu_wire_bytes);
  add(r.bus.inter_gpu_payload_raw_bits);
  add(r.bus.inter_gpu_payload_wire_bits);
  add(r.bus.inter_gpu_offered_messages);
  add(r.bus.inter_gpu_offered_wire_bytes);
  add(r.policy_stats.total_transfers());
  add(r.policy_stats.sampled_transfers);
  add(r.policy_stats.votes_taken);
  add(r.policy_stats.degrade_events);
  add(r.policy_stats.degraded_transfers);
  add(r.link.crc_failures);
  add(r.link.retransmissions());
  add(r.link.duplicates_suppressed);
  add(r.link.hard_failures);
  add(r.remote_read_latency.count());
  add(static_cast<std::uint64_t>(r.remote_read_latency.max()));
  add(r.remote_write_latency.count());
  add(r.l1v.read_hits + r.l1v.read_misses);
  add(r.l2.read_hits + r.l2.read_misses);
  std::snprintf(buf, sizeof buf, "%a,%a,%a", r.fabric_energy_pj, r.compressor_energy_pj,
                r.decompressor_energy_pj);
  d += buf;
  return d;
}

TEST(TracedSystem, DisabledTracerRunsAreBitIdenticalAcrossAllWorkloads) {
  for (const std::string_view abbrev : workload_abbrevs()) {
    auto wl_off = make_workload(abbrev, 0.05);
    auto wl_on = make_workload(abbrev, 0.05);
    const RunResult off = run_workload(traced_config(0), *wl_off);
    const RunResult on = run_workload(traced_config(1 << 16), *wl_on);
    EXPECT_EQ(run_digest(off), run_digest(on)) << "tracing perturbed " << abbrev;
    EXPECT_TRUE(off.trace_json.empty());
    EXPECT_FALSE(on.trace_json.empty());
    EXPECT_GT(on.trace_events_recorded, 0u);
  }
}

TEST(TracedSystem, FaultyRunIsBitIdenticalWithTracingToggled) {
  // The fault paths add tracer hooks of their own (drop instants, CRC
  // rejects, retransmits); none may reorder or reseed anything.
  auto wl_off = make_workload("MT", 0.1);
  auto wl_on = make_workload("MT", 0.1);
  const RunResult off = run_workload(traced_config(0, 3e-5), *wl_off);
  const RunResult on = run_workload(traced_config(1 << 18, 3e-5), *wl_on);
  ASSERT_GT(on.link.crc_failures, 0u);  // the run actually exercised faults
  EXPECT_EQ(run_digest(off), run_digest(on));
}

TEST(TracedSystem, HealthMonitoredRunIsBitIdenticalWithTracingToggled) {
  // Link-flap episodes arm the health monitor, whose probes and state
  // transitions add tracer hooks of their own. On both fabrics they must
  // leave the run untouched, and the trace must repeat byte for byte.
  for (const FabricKind fabric : {FabricKind::kBus, FabricKind::kSwitch}) {
    const auto run_flapping = [fabric](std::size_t trace_events) {
      SystemConfig cfg = traced_config(trace_events);
      cfg.fabric = fabric;
      std::string error;
      EXPECT_TRUE(parse_fault_episodes("flap:0-1@256+12288x2/12544", &cfg.episodes, &error))
          << error;
      auto wl = make_workload("MT", 0.05);
      return run_workload(std::move(cfg), *wl);
    };
    const char* where = fabric == FabricKind::kBus ? "bus" : "switch";
    const RunResult off = run_flapping(0);
    const RunResult on = run_flapping(1 << 16);
    const RunResult again = run_flapping(1 << 16);
    ASSERT_GT(on.health.transitions(), 0u) << where;  // the monitor actually ran
    EXPECT_EQ(run_digest(off), run_digest(on)) << where;
    EXPECT_EQ(off.health.transitions(), on.health.transitions()) << where;
    EXPECT_EQ(off.health.probes_sent, on.health.probes_sent) << where;
    EXPECT_FALSE(on.trace_json.empty()) << where;
    EXPECT_EQ(on.trace_json, again.trace_json) << where;
  }
}

TEST(TracedSystem, ExportedTraceIsValidAndSpansAreWellFormed) {
  auto wl = make_workload("MT", 0.05);
  const RunResult r = run_workload(traced_config(1 << 16), *wl);
  ASSERT_TRUE(is_valid_json(r.trace_json));

  const std::vector<std::string> events = event_objects(r.trace_json);
  ASSERT_FALSE(events.empty());
  std::size_t spans = 0;
  for (const std::string& obj : events) {
    const std::string ph = field(obj, "ph");
    ASSERT_FALSE(ph.empty()) << obj;
    if (ph == "M") continue;
    ASSERT_FALSE(field(obj, "ts").empty()) << obj;
    if (ph == "X") {
      ++spans;
      // Complete events: duration present and non-negative (the ring
      // stores spans whole, so no begin can be orphaned by eviction).
      const std::string dur = field(obj, "dur");
      ASSERT_FALSE(dur.empty()) << obj;
      EXPECT_GE(std::atof(dur.c_str()), 0.0) << obj;
    } else {
      ASSERT_TRUE(ph == "i" || ph == "C") << obj;
    }
  }
  EXPECT_GT(spans, 0u);
}

TEST(TracedSystem, CounterSamplesAreMonotoneInTime) {
  auto wl = make_workload("MT", 0.05);
  const RunResult r = run_workload(traced_config(1 << 16), *wl);
  std::map<std::string, double> last_ts;  // keyed by counter name (incl. track)
  std::size_t counters = 0;
  for (const std::string& obj : event_objects(r.trace_json)) {
    if (field(obj, "ph") != "C") continue;
    ++counters;
    const std::string name = field(obj, "name");
    const double ts = std::atof(field(obj, "ts").c_str());
    const auto it = last_ts.find(name);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "counter " << name << " went backwards";
    }
    last_ts[name] = ts;
  }
  EXPECT_GT(counters, 0u);
}

TEST(TracedSystem, DegradePhaseSpansMatchDegradeEvents) {
  // Acceptance check: on a lossy link, the trace shows one "degraded"
  // phase span per genuine hot window — no oscillation artifacts.
  SystemConfig cfg;
  AdaptiveParams ap;
  ap.lambda = 6.0;
  ap.degrade_window = 32;
  ap.degrade_error_threshold = 0.02;
  ap.degrade_cooldown_transfers = 64;
  cfg.policy = make_adaptive_policy(ap);
  cfg.fault.bit_error_rate = 3e-4;
  cfg.retry.timeout = 4096;
  cfg.trace_events = 1 << 19;
  auto wl = make_workload("MT", 0.3);
  const RunResult r = run_workload(std::move(cfg), *wl);
  ASSERT_GT(r.policy_stats.degrade_events, 0u);
  ASSERT_EQ(r.trace_events_dropped, 0u)
      << "ring evicted events; the degrade-span count would be unreliable";

  std::size_t degrade_spans = 0;
  for (const std::string& obj : event_objects(r.trace_json)) {
    if (field(obj, "ph") == "X" && field(obj, "name") == "degraded") ++degrade_spans;
  }
  EXPECT_EQ(degrade_spans, r.policy_stats.degrade_events);
}

TEST(TracedSystem, LatencyHistogramsMatchRequestCounts) {
  auto wl = make_workload("MT", 0.05);
  const RunResult r = run_workload(traced_config(0), *wl);
  // Lossless run: every remote read/write completes exactly once, so the
  // histograms hold exactly one sample per request.
  EXPECT_EQ(r.remote_read_latency.count(), r.remote_reads());
  EXPECT_EQ(r.remote_write_latency.count(), r.remote_writes());
  EXPECT_GT(r.remote_read_latency.percentile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Every fabric: the bus grant, crossbar port and trunk-hop hooks stay
// observational, and the exported trace is a function of the configuration
// alone.
// ---------------------------------------------------------------------------

SystemConfig fabric_traced_config(FabricKind fabric, std::size_t trace_events) {
  SystemConfig cfg = traced_config(trace_events);
  cfg.fabric = fabric;
  if (fabric == FabricKind::kHier) {
    // Two nodes of two GPUs on 4:1 fat-tree trunks.
    cfg.hier.gpus_per_node = 2;
    cfg.hier.internode_bw_ratio = 4;
    cfg.hier.graph = HierGraph::kFatTree;
  }
  return cfg;
}

class TracedFabricSweep : public ::testing::TestWithParam<std::string_view> {};

TEST_P(TracedFabricSweep, TracingIsObservationalAndRepeatableOnEveryFabric) {
  const std::string_view abbrev = GetParam();
  // Seeded per workload: fixed for a given binary, but the scales differ
  // across workloads so the sweep covers varied schedule shapes.
  std::seed_seq seed(abbrev.begin(), abbrev.end());
  std::mt19937 rng(seed);
  const double scale = std::uniform_real_distribution<double>(0.03, 0.08)(rng);
  for (const FabricKind fabric : {FabricKind::kBus, FabricKind::kSwitch, FabricKind::kHier}) {
    const auto run_on = [&](std::size_t trace_events) {
      auto wl = make_workload(abbrev, scale);
      return run_workload(fabric_traced_config(fabric, trace_events), *wl);
    };
    const char* where = fabric == FabricKind::kBus      ? "bus"
                        : fabric == FabricKind::kSwitch ? "switch"
                                                        : "hier";
    const RunResult off = run_on(0);
    const RunResult on = run_on(1 << 16);
    const RunResult again = run_on(1 << 16);
    EXPECT_EQ(run_digest(off), run_digest(on))
        << "tracing perturbed " << abbrev << " at scale " << scale << " on " << where;
    EXPECT_GT(on.trace_events_recorded, 0u) << abbrev << " on " << where;
    EXPECT_EQ(on.trace_json, again.trace_json)
        << abbrev << " at scale " << scale << " on " << where;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TracedFabricSweep,
                         ::testing::ValuesIn(workload_abbrevs()),
                         [](const ::testing::TestParamInfo<std::string_view>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace mgcomp
