// mgbench: runs one benchmark workload in this process, on one thread, and
// prints its measurements as one JSON document on stdout.
//
//   mgbench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//           [--trace-out FILE]
//
// A pass runs every simulation the workload is made of. The first pass is a
// discarded warm-up whose fingerprints every later pass must reproduce;
// timed passes follow for up to T seconds (at least three), each cut into
// segments by a PassClock (layers.h) and followed by readings of the core
// clock. With --trace 1 the untraced passes take up to T/2 (the fastest of
// them is the baseline of trace.overhead_frac), and one traced pass with the
// layer decorators attached and the standalone layer replays (layers.h)
// follow.
// benchmark/run.py turns the samples into the reported metrics and checks
// them.
//
// Seed 0 keeps every workload's own Params seed, so it reproduces
// make_workload(abbrev, 1.0); any other seed salts the workload, fault and
// collective seeds.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/fingerprint.h"
#include "collective/collective.h"
#include "compression/simd/dispatch.h"
#include "core/system.h"
#include "layers.h"
#include "workloads/aes.h"
#include "workloads/all_workloads.h"
#include "workloads/bitonic_sort.h"
#include "workloads/convolution.h"
#include "workloads/fir.h"
#include "workloads/gradient_descent.h"
#include "workloads/kmeans.h"
#include "workloads/matrix_transpose.h"

namespace {

using namespace mgcomp;
using mgbench::LayerProbe;
using mgbench::now_ns;
using mgbench::PassClock;
using mgbench::Tracing;

/// What one benchmark workload simulates. Every config pins its fabric and
/// shards = 1, so no MGCOMP_* environment variable changes what is measured.
struct Spec {
  std::string_view name;
  std::vector<std::string_view> abbrevs;  ///< Table IV workloads; empty = the collective
  bool adaptive{true};
  FabricKind fabric{FabricKind::kBus};
  double ber{0.0};
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> kSpecs = {
      {"paper_adaptive", {"AES", "BS", "FIR", "GD", "KM", "MT", "SC"}, true, FabricKind::kBus},
      {"paper_raw", {"AES", "BS", "FIR", "GD", "KM", "MT", "SC"}, false, FabricKind::kBus},
      {"allreduce_hier", {}, true, FabricKind::kHier},
      {"lossy_switch", {"BS", "KM", "SC"}, true, FabricKind::kSwitch, 1e-5},
  };
  return kSpecs;
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;  // run.py refuses numbers from an assert-enabled build
#endif

// The collective workload: one 32-rank all-reduce, 8 nodes x 4 GPUs on a
// 4:1 fat-tree, 256 KB per rank, page-sized bulk blocks on the trunks.
constexpr std::uint32_t kCollectiveRanks = 32;
constexpr HierTopology kCollectiveTopo{4, 4, HierGraph::kFatTree};
constexpr std::size_t kCollectiveLinesPerRank = 256 * 1024 / kLineBytes;
constexpr std::uint32_t kTrunkLinesPerBlock = 64;

// The host's core clock moves between turbo bins with its neighbours' load
// (2.7 to 4.0 GHz on the reference host). After every timed pass the
// fastest of a few short multiply-add chains prices the clock; run.py
// scales host times by it.
constexpr int kChainsPerPass = 4;
constexpr std::uint64_t kChainSteps = 1'000'000;

std::uint64_t salt_of(std::uint64_t seed) {
  if (seed == 0) return 0;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <typename W>
std::unique_ptr<Workload> salted(std::uint64_t salt) {
  typename W::Params p;
  p.seed ^= salt;
  return std::make_unique<W>(p);
}

/// GD's verify() demands that its eight descent steps halve the loss, which
/// most input seeds miss. A salted GD therefore takes the first of the
/// salts salt, salt + 1, ... whose functional run (trace generation only,
/// no simulation) converges. Memoized: the search runs in the warm-up pass.
std::unique_ptr<Workload> converging_gd(std::uint64_t salt) {
  static std::map<std::uint64_t, std::uint64_t> chosen;
  auto it = chosen.find(salt);
  for (std::uint64_t k = 0; it == chosen.end(); ++k) {
    MGCOMP_CHECK_MSG(k < 1000, "no converging GD input near this seed");
    GradientDescentWorkload::Params p;
    p.seed ^= salt + k;
    GradientDescentWorkload gd(p);
    GlobalMemory mem;
    gd.setup(mem);
    for (std::size_t kernel = 0; kernel < gd.kernel_count(); ++kernel) {
      (void)gd.generate_kernel(kernel, mem);
    }
    if (gd.verify(mem)) it = chosen.emplace(salt, salt + k).first;
  }
  return salted<GradientDescentWorkload>(it->second);
}

/// make_workload(abbrev, 1.0) with the workload's input seed salted. At
/// scale 1.0 make_workload passes every default Params field through
/// unchanged, so only the seed differs.
std::unique_ptr<Workload> make_seeded(std::string_view abbrev, std::uint64_t salt) {
  if (salt == 0) return make_workload(abbrev, 1.0);
  if (abbrev == "AES") return salted<AesWorkload>(salt);
  if (abbrev == "BS") return salted<BitonicSortWorkload>(salt);
  if (abbrev == "FIR") return salted<FirWorkload>(salt);
  if (abbrev == "GD") return converging_gd(salt);
  if (abbrev == "KM") return salted<KMeansWorkload>(salt);
  if (abbrev == "MT") return salted<MatrixTransposeWorkload>(salt);
  if (abbrev == "SC") return salted<ConvolutionWorkload>(salt);
  return nullptr;
}

/// One simulation of a pass.
struct Run {
  std::string name;
  std::uint64_t fingerprint{0};
  bool ok{true};          ///< collective verified and completed (workloads abort instead)
  std::int64_t construct_ns{0};
  std::int64_t setup_ns{0};
  std::int64_t kernel_ns{0};  ///< simulating, policy calls excluded
  std::int64_t core_ns{0};    ///< core self time: construct + kernel + collect + teardown
  RunResult result;
};

struct Pass {
  std::int64_t wall_ns{0};
  std::int64_t setup_ns{0};
  std::uint64_t events{0};
  std::vector<Run> runs;
};

PolicyFactory policy_for(const Spec& spec, Tracing* tr, PassClock* clock) {
  PolicyFactory f =
      spec.adaptive ? make_adaptive_policy(AdaptiveParams{}) : make_no_compression_policy();
  return mgbench::timed_policy(std::move(f), tr != nullptr ? &tr->probe : nullptr, clock);
}

Run run_workload_once(const Spec& spec, std::string_view abbrev, std::uint64_t salt,
                      Tracing* tr, PassClock* clock, int parent) {
  Run run;
  run.name = std::string(abbrev);
  mgbench::TimedWorkload workload(make_seeded(abbrev, salt),
                                  tr != nullptr ? &tr->probe : nullptr,
                                  tr != nullptr ? &tr->log : nullptr, clock, parent);
  SystemConfig cfg;
  cfg.num_gpus = 4;
  cfg.fabric = spec.fabric;
  cfg.shards = 1;
  cfg.policy = policy_for(spec, tr, clock);
  cfg.fault.bit_error_rate = spec.ber;
  cfg.fault.seed ^= salt;

  if (clock != nullptr) clock->begin_setup();
  const std::int64_t t0 = now_ns();
  auto sys = std::make_unique<MultiGpuSystem>(std::move(cfg));
  const std::int64_t t1 = now_ns();
  if (clock != nullptr) clock->end_setup();
  run.result = sys->run(workload);  // aborts if the workload's verify() fails
  const std::int64_t t2 = now_ns();
  sys.reset();
  const std::int64_t t3 = now_ns();

  run.fingerprint = run_fingerprint(run.result);
  run.construct_ns = t1 - t0;
  run.setup_ns = run.construct_ns + workload.setup_ns();
  run.kernel_ns = workload.run_kernel_ns();
  run.core_ns = run.construct_ns + run.kernel_ns + (t2 - workload.verify_end_ns()) + (t3 - t2);
  if (tr != nullptr) {
    tr->log.add("core.construct", t0, t1, parent);
    tr->log.add("core.collect", workload.verify_end_ns(), t2, parent);
    tr->log.add("core.teardown", t2, t3, parent);
  }
  return run;
}

Run run_collective_once(const Spec& spec, std::uint64_t salt, Tracing* tr, PassClock* clock,
                        int parent) {
  Run run;
  run.name = "allreduce";
  SystemConfig cfg;
  cfg.num_gpus = kCollectiveRanks;
  cfg.fabric = spec.fabric;
  cfg.hier = kCollectiveTopo;
  cfg.shards = 1;
  cfg.policy = policy_for(spec, tr, clock);
  CollectiveConfig ccfg;
  ccfg.kind = CollectiveKind::kAllReduce;
  ccfg.fill = CollectiveFill::kLowRange;
  ccfg.lines_per_rank = kCollectiveLinesPerRank;
  ccfg.algo = CollectiveAlgo::kAuto;
  ccfg.trunk_lines_per_block = kTrunkLinesPerBlock;
  ccfg.seed ^= salt;

  const std::int64_t ns_before = tr != nullptr ? tr->probe.policy_ns() : 0;
  const std::uint64_t calls_before = tr != nullptr ? tr->probe.policy_calls() : 0;
  if (clock != nullptr) clock->begin_setup();
  const std::int64_t t0 = now_ns();
  auto sys = std::make_unique<MultiGpuSystem>(std::move(cfg));
  const std::int64_t t1 = now_ns();
  if (clock != nullptr) clock->end_setup();
  const CollectiveOutcome out = run_collective(*sys, ccfg);
  const std::int64_t t2 = now_ns();
  sys.reset();
  const std::int64_t t3 = now_ns();

  run.fingerprint = collective_fingerprint(out);
  run.ok = out.verified && out.status == CollectiveStatus::kCompleted;
  run.result = out.run;
  run.construct_ns = t1 - t0;
  run.setup_ns = run.construct_ns;
  const std::int64_t policy_ns = tr != nullptr ? tr->probe.policy_ns() - ns_before : 0;
  run.kernel_ns = t2 - t1 - policy_ns;
  run.core_ns = run.construct_ns + run.kernel_ns + (t3 - t2);
  if (tr != nullptr) {
    tr->log.add("core.construct", t0, t1, parent);
    const int span = tr->log.add("core.run_collective", t1, t2, parent);
    tr->log.add("adaptive.decide", t1, t1 + policy_ns, span,
                tr->probe.policy_calls() - calls_before);
    tr->log.add("core.teardown", t2, t3, parent);
  }
  return run;
}

Pass run_pass(const Spec& spec, std::uint64_t salt, Tracing* tr, PassClock* clock) {
  Pass pass;
  const std::int64_t t0 = now_ns();
  const int pass_span = tr != nullptr ? tr->log.add("pass", t0, t0, -1) : -1;
  const std::size_t n = spec.abbrevs.empty() ? 1 : spec.abbrevs.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t r0 = now_ns();
    const int run_span =
        tr != nullptr ? tr->log.add("run[" + std::to_string(i) + "]", r0, r0, pass_span) : -1;
    Run run = spec.abbrevs.empty()
                  ? run_collective_once(spec, salt, tr, clock, run_span)
                  : run_workload_once(spec, spec.abbrevs[i], salt, tr, clock, run_span);
    if (tr != nullptr) tr->log.set_end(run_span, now_ns());
    pass.setup_ns += run.setup_ns;
    pass.events += run.result.events_executed;
    pass.runs.push_back(std::move(run));
  }
  pass.wall_ns = now_ns() - t0;
  if (tr != nullptr) tr->log.set_end(pass_span, t0 + pass.wall_ns);
  return pass;
}

// ---- JSON output -----------------------------------------------------------

class Json {
 public:
  void key(std::string_view k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\": ";
    fresh_ = true;
  }
  void num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    raw(buf);
  }
  void u64(std::uint64_t v) { raw(std::to_string(v)); }
  void str(std::string_view s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    raw(q + '"');
  }
  void boolean(bool b) { raw(b ? "true" : "false"); }
  void open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
  }
  void close(char c) {
    out_ += c;
    fresh_ = false;
  }
  [[nodiscard]] const std::string& text() const noexcept { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ", ";
    fresh_ = false;
  }
  void raw(std::string_view s) {
    sep();
    out_ += s;
  }
  std::string out_;
  bool fresh_{true};
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Per-layer metrics of the traced pass (names as in BENCHMARK.json).
std::map<std::string, double> layer_metrics(const Spec& spec, const Pass& traced,
                                            const LayerProbe& probe,
                                            double fastest_untraced_ns) {
  const auto wall = static_cast<double>(traced.wall_ns);
  const auto share = [wall](double ns) { return ns / wall; };
  const auto frac = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto d = [](auto v) { return static_cast<double>(v); };

  // Sums over the runs of the pass.
  double events = 0, messages = 0, wire = 0, trunk = 0, busy = 0, ticks = 0;
  double transfers = 0, sampled = 0, raw = 0, degrades = 0, pool_hits = 0, pool_misses = 0;
  double crc = 0, retx = 0, dups = 0, wasted = 0;
  double core_ns = 0, construct_ns = 0, kernel_ns = 0;
  CacheStats l1v, l1s, l2;
  LatencyHistogram reads, bulk_reads;
  for (const Run& run : traced.runs) {
    const RunResult& r = run.result;
    events += d(r.events_executed);
    messages += d(r.bus.total_messages());
    wire += d(r.bus.total_wire_bytes());
    trunk += d(r.bus.trunk_wire_bytes);
    busy += d(r.bus.busy_cycles);
    ticks += d(r.exec_ticks);
    transfers += d(r.policy_stats.total_transfers());
    sampled += d(r.policy_stats.sampled_transfers);
    raw += d(r.policy_stats.wire_counts[static_cast<std::size_t>(CodecId::kNone)]);
    degrades += d(r.policy_stats.degrade_events);
    pool_hits += d(r.pool_hits);
    pool_misses += d(r.pool_misses);
    crc += d(r.link.crc_failures);
    retx += d(r.link.retransmissions());
    dups += d(r.link.duplicates_suppressed);
    wasted += d(std::min(r.link.wasted_wire_bytes + r.faults.dropped_wire_bytes,
                         r.bus.total_wire_bytes()));
    for (auto [sum, one] : {std::pair{&l1v, &r.l1v}, {&l1s, &r.l1s}, {&l2, &r.l2}}) {
      sum->read_hits += one->read_hits;
      sum->read_misses += one->read_misses;
      sum->write_hits += one->write_hits;
      sum->write_misses += one->write_misses;
    }
    reads.merge(r.remote_read_latency);
    bulk_reads.merge(r.bulk_read_latency);
    core_ns += d(run.core_ns);
    construct_ns += d(run.construct_ns);
    kernel_ns += d(run.kernel_ns);
  }

  std::map<std::string, double> m;
  m["workloads.kernels"] = d(probe.kernels);
  m["workloads.share"] = share(d(probe.setup_ns + probe.generate_ns + probe.verify_ns));
  m["workloads.setup_share"] = share(d(probe.setup_ns));
  m["workloads.generate_share"] = share(d(probe.generate_ns));
  m["workloads.verify_share"] = share(d(probe.verify_ns));

  m["core.construct_ms"] = construct_ns / 1e6;
  m["core.run_kernel_ms"] = kernel_ns / 1e6;
  m["core.self_share"] = share(core_ns);

  // The policy timer's own cost is taken out of the policy and booked as
  // trace.timer_share.
  const double floor = mgbench::timer_floor_ns();
  const double calls = d(probe.decide_calls);
  const double block_calls = d(probe.block_calls);
  const double decide_net = d(probe.decide_ns) - calls * floor;
  m["adaptive.decide_calls"] = calls;
  m["adaptive.decide_ns"] = frac(decide_net, calls);
  m["adaptive.decide_share"] = share(decide_net);
  m["adaptive.block_calls"] = block_calls;
  m["adaptive.block_share"] = share(d(probe.block_ns) - block_calls * floor);
  m["adaptive.sampled_frac"] = frac(sampled, transfers);
  m["adaptive.raw_frac"] = frac(raw, transfers);
  m["adaptive.degrade_events"] = degrades;
  m["adaptive.timer_floor_ns"] = floor;

  const mgbench::CompressionReplay c =
      mgbench::replay_compression(probe.lines.items(), probe.blocks.items());
  m["compression.probe_all_ns"] = c.probe_all_ns;
  m["compression.zero_line_frac"] = c.zero_line_frac;
  m["compression.compress_ns.fpc"] = c.compress_ns[0];
  m["compression.compress_ns.bdi"] = c.compress_ns[1];
  m["compression.compress_ns.cpackz"] = c.compress_ns[2];
  m["compression.block_probe_ns_per_kb"] = c.block_probe_ns_per_kb;
  m["compression.block_compress_ns_per_kb"] = c.block_compress_ns_per_kb;

  const double ns_event = mgbench::engine_ns_per_event(64);
  m["sim.events"] = events;
  m["sim.ns_per_event_d64"] = ns_event;
  m["sim.ns_per_event_d4096"] = mgbench::engine_ns_per_event(4096);
  m["sim.est_share"] = share(events * ns_event);

  const std::uint32_t gpus = spec.abbrevs.empty() ? kCollectiveRanks : 4;
  const auto mean_wire = static_cast<std::uint32_t>(frac(wire, messages));
  const double ns_msg =
      mgbench::fabric_ns_per_message(spec.fabric, kCollectiveTopo, gpus, mean_wire, ns_event);
  // busy_cycles counts serialization time: of the one wire on the bus, of
  // every output port on the switch and hier fabrics.
  const double ports = spec.fabric == FabricKind::kBus ? 1.0 : gpus;
  m["fabric.messages"] = messages;
  m["fabric.utilization"] = frac(busy, ticks * ports);
  m["fabric.trunk_wire_bytes"] = trunk;
  m["fabric.ns_per_message"] = ns_msg;
  m["fabric.est_share"] = share(messages * ns_msg);

  const GpuParams gp;
  const double l1_acc = d(l1v.accesses() + l1s.accesses());
  const double l2_acc = d(l2.accesses());
  const double memory_ns =
      l1_acc * mgbench::cache_ns_per_access(gp.l1v_bytes, gp.l1v_ways, l1v.hit_rate()) +
      l2_acc * mgbench::cache_ns_per_access(gp.l2_bank_bytes, gp.l2_ways, l2.hit_rate());
  m["memory.accesses"] = l1_acc + l2_acc;
  m["memory.l1v_hit_rate"] = l1v.hit_rate();
  m["memory.l2_hit_rate"] = l2.hit_rate();
  m["memory.ns_per_access"] = frac(memory_ns, l1_acc + l2_acc);
  m["memory.est_share"] = share(memory_ns);

  m["gpu.remote_read_p50_cycles"] = reads.percentile(0.5);
  m["gpu.remote_read_p99_cycles"] = reads.percentile(0.99);
  m["gpu.bulk_read_p99_cycles"] = bulk_reads.percentile(0.99);
  m["gpu.pool_miss_frac"] = frac(pool_misses, pool_hits + pool_misses);
  m["gpu.residual_share"] =
      m["core.self_share"] - m["sim.est_share"] - m["fabric.est_share"] - m["memory.est_share"];

  m["fault.crc_failures"] = crc;
  m["fault.retransmissions"] = retx;
  m["fault.duplicates_suppressed"] = dups;
  m["fault.goodput_fraction"] = 1.0 - frac(wasted, wire);

  const CollectiveStats& cs = traced.runs.front().result.collective;
  m["collective.duration_cycles"] = d(cs.duration);
  m["collective.alg_bw"] = cs.alg_bytes_per_cycle();
  m["collective.bus_bw"] = cs.bus_bytes_per_cycle();
  m["collective.block_transfers"] = d(cs.block_transfers);

  m["trace.overhead_frac"] = wall / fastest_untraced_ns - 1.0;
  m["trace.timer_share"] = share((calls + block_calls) * floor);
  m["trace.coverage"] = m["workloads.share"] + m["adaptive.decide_share"] +
                        m["adaptive.block_share"] + m["trace.timer_share"] +
                        m["core.self_share"];
  return m;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mgbench: %s\nusage: mgbench --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] [--trace-out FILE]\nworkloads:",
               why);
  for (const Spec& s : specs()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(s.name.size()), s.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++i];
    if (flag == "--workload") {
      for (const Spec& s : specs()) {
        if (s.name == value) spec = &s;
      }
      if (spec == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
      if (!(seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      usage("unknown option");
    }
  }
  if (spec == nullptr) usage("--workload is required");
  const std::uint64_t salt = salt_of(seed);

  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  const auto check = [&](const Pass& pass, const Pass& ref, const char* what) {
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
      const Run& run = pass.runs[i];
      ++attempted;
      if (!run.ok) {
        failures.push_back(std::string(what) + " " + run.name + ": collective not verified");
      } else if (&pass != &ref && run.fingerprint != ref.runs[i].fingerprint) {
        failures.push_back(std::string(what) + " " + run.name + ": fingerprint " +
                           hex(run.fingerprint) + " != " + hex(ref.runs[i].fingerprint));
      }
    }
  };

  const Pass warmup = run_pass(*spec, salt, nullptr, nullptr);
  check(warmup, warmup, "warm-up");
  const double budget_ns = (trace ? 0.5 : 1.0) * seconds * 1e9;
  std::vector<Pass> timed;
  PassClock clock;
  double chain_ns = 1e9;
  // A pass starts only while one more as long as the last still fits in the
  // budget, so the timed passes end within it (there are at least three).
  const std::int64_t start = now_ns();
  std::int64_t last_ns = 0;
  while (timed.size() < 3 || static_cast<double>(now_ns() - start + last_ns) <= budget_ns) {
    const std::int64_t pass_start = now_ns();
    clock.start_pass();
    timed.push_back(run_pass(*spec, salt, nullptr, &clock));
    if (!clock.end_pass()) failures.push_back("timed pass: segments differ from the first pass's");
    for (int r = 0; r < kChainsPerPass; ++r) {
      chain_ns = std::min(chain_ns, mgbench::chain_ns_per_step(kChainSteps));
    }
    check(timed.back(), warmup, "timed");
    for (auto& run : timed.back().runs) run.result = RunResult{};  // keep memory flat
    last_ns = now_ns() - pass_start;
  }

  std::map<std::string, double> layers;
  if (trace) {
    Tracing tr;
    const Pass traced = run_pass(*spec, salt, &tr, nullptr);
    check(traced, warmup, "traced");
    std::int64_t fastest = timed.front().wall_ns;
    for (const Pass& p : timed) fastest = std::min(fastest, p.wall_ns);
    layers = layer_metrics(*spec, traced, tr.probe, static_cast<double>(fastest));
    if (!trace_out.empty()) {
      std::FILE* f = std::fopen(trace_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "mgbench: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::fputs(tr.log.chrome_json().c_str(), f);
      std::fclose(f);
    }
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);

  Json j;
  j.open('{');
  j.key("schema");
  j.str("mgbench-v1");
  j.key("workload");
  j.str(spec->name);
  j.key("seed");
  j.u64(seed);
  j.key("ndebug");
  j.boolean(kNdebug);
  j.key("build_type");
  j.str(MGBENCH_BUILD_TYPE);
  j.key("compiler");
  j.str(MGBENCH_COMPILER);
  j.key("simd");
  j.str(simd::backend_name(simd::active_backend()));
  j.key("attempted");
  j.u64(attempted);
  j.key("failures");
  j.open('[');
  for (const std::string& f : failures) j.str(f);
  j.close(']');
  j.key("peak_rss_mb");
  j.num(static_cast<double>(usage_now.ru_maxrss) / 1024.0);
  j.key("passes");
  j.open('[');
  for (const Pass& p : timed) {
    j.open('{');
    j.key("wall_s");
    j.num(static_cast<double>(p.wall_ns) / 1e9);
    j.key("setup_s");
    j.num(static_cast<double>(p.setup_ns) / 1e9);
    j.key("events");
    j.u64(p.events);
    j.close('}');
  }
  j.close(']');
  j.key("segments");
  j.u64(clock.segments());
  j.key("best_wall_s");
  j.num(clock.wall_ns() / 1e9);
  j.key("best_setup_s");
  j.num(clock.setup_ns() / 1e9);
  j.key("half_wall_s");
  j.open('[');
  for (int half = 0; half < 2; ++half) j.num(clock.wall_ns(half) / 1e9);
  j.close(']');
  j.key("half_setup_s");
  j.open('[');
  for (int half = 0; half < 2; ++half) j.num(clock.setup_ns(half) / 1e9);
  j.close(']');
  j.key("chain_ns_per_step");
  j.num(chain_ns);
  // Modelled-machine results, identical in every pass (fingerprint-checked).
  j.key("runs");
  j.open('[');
  for (const Run& run : warmup.runs) {
    const RunResult& r = run.result;
    j.open('{');
    j.key("name");
    j.str(run.name);
    j.key("fingerprint");
    j.str(hex(run.fingerprint));
    j.key("events");
    j.u64(r.events_executed);
    j.key("sim_cycles");
    j.u64(spec->abbrevs.empty() ? r.collective.duration : r.exec_ticks);
    j.key("wire_bytes");
    j.u64(r.inter_gpu_traffic_bytes());
    j.key("link_energy_uj");
    j.num(r.total_link_energy_pj() / 1e6);
    j.close('}');
  }
  j.close(']');
  if (trace) {
    j.key("layers");
    j.open('{');
    for (const auto& [name, value] : layers) {
      j.key(name);
      j.num(value);
    }
    j.close('}');
  }
  j.close('}');
  std::puts(j.text().c_str());
  return 0;
}
