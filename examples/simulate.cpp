// Command-line simulation driver: run any workload under any policy and
// print a full report. This is the "do one experiment by hand" tool the
// bench_* binaries are built from.
//
//   simulate [options]
//     --workload  AES|BS|FIR|GD|KM|MT|SC     (default MT)
//     --policy    none|fpc|bdi|cpack|adaptive (default adaptive)
//     --lambda    <float >= 0>                (default 6)
//     --scale     <float > 0>                 (default 1.0)
//     --gpus      <int>                       (default 4)
//     --bus       <bytes/cycle>               (default 20)
//     --samples   <sampling transfers>        (default 7)
//     --running   <running transfers>         (default 300)
//     --tier      chip|die|package|node       (default die)
//     --ber       <bit error rate, 0..1>      (default 0; enables reliability layer)
//     --drop      <message drop rate, 0..1>   (default 0)
//     --topology  bus|switch|hier|hier-fattree|hier-torus
//                                              (pins the fabric; default bus
//                                               unless MGCOMP_TOPOLOGY is set)
//     --gpus-per-node <int>                    (hier node grouping, default 4;
//                                               must divide --gpus)
//     --internode-bw-ratio <int>               (trunk oversubscription,
//                                               default 4)
//     --fault-episodes SPEC                   (fail-stop schedule, e.g.
//                                              "down:0-1@5000+20000;gpufail:2@80000";
//                                              see parse_fault_episodes)
//     --characterize                          (adds Table V-style columns)
//     --trace-out <file.json>                 (write Chrome trace-event JSON; open in Perfetto)
//     --trace-limit <events>                  (trace ring capacity, default 262144)
//     --simd      scalar|avx2|neon            (pin codec kernel backend; default best)
//
//   Collective mode (replaces the workload with one ring collective):
//     --collective allreduce|allgather|reducescatter|broadcast
//     --coll-kb    <KB per rank>              (default 64)
//     --coll-fill  zero|lowrange|ramp|random  (default lowrange)
//     --coll-op    sum|max                    (default sum)
//     --coll-window <in-flight lines per hop> (default 16)
//     --coll-lines-per-block <lines>          (bulk pulls: lines per ring-hop
//                                              request, 1..64; default 1 = per-line)
//     --coll-root  <rank>                     (broadcast source, default 0)
//     --coll-algo  auto|flat|hier             (schedule family; auto picks
//                                              hier on hierarchical fabrics)
//     --coll-trunk-lines-per-block <lines>    (hier trunk-phase block size,
//                                              1..64; default 64 = full page)
//     --allow-shrink                          (complete on survivors after a GPU fail-stop)
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "analysis/report.h"
#include "collective/collective.h"
#include "compression/simd/dispatch.h"
#include "core/system.h"
#include "workloads/all_workloads.h"

namespace {

using namespace mgcomp;

struct Options {
  std::string workload{"MT"};
  std::string policy{"adaptive"};
  double lambda{6.0};
  double scale{1.0};
  std::uint32_t gpus{4};
  std::uint32_t bus{20};
  std::uint32_t samples{7};
  std::uint32_t running{300};
  std::string tier{"die"};
  double ber{0.0};   ///< link bit-error rate (reliability extension)
  double drop{0.0};  ///< link message-drop rate
  std::string topology;              ///< explicit fabric pin ("" = bus or MGCOMP_TOPOLOGY)
  std::uint32_t gpus_per_node{0};    ///< hier node grouping (0 = config default)
  std::uint32_t internode_bw_ratio{0};  ///< trunk oversubscription (0 = default)
  std::string fault_episodes;  ///< fail-stop episode spec ("" = none)
  bool allow_shrink{false};    ///< collective: shrink past dead ranks
  bool characterize{false};
  bool json{false};
  std::string dump_trace;  ///< CSV path for Fig.1-style per-transfer series
  std::string trace_out;   ///< Chrome trace-event JSON path (Perfetto)
  std::size_t trace_limit{262144};  ///< event-ring capacity for --trace-out
  std::string simd;        ///< pinned SIMD backend ("" = best available)
  std::string collective;  ///< collective mode: op name ("" = workload mode)
  std::uint32_t coll_kb{64};       ///< collective buffer KB per rank
  std::string coll_fill{"lowrange"};
  std::string coll_op{"sum"};
  std::uint32_t coll_window{16};
  std::uint32_t coll_lines_per_block{1};
  std::uint32_t coll_root{0};
  std::string coll_algo{"auto"};
  std::uint32_t coll_trunk_lpb{0};  ///< trunk-phase block size (0 = full page)
};

constexpr double kPositiveMin = std::numeric_limits<double>::min();

/// Parses all of `v` as a number in [lo, hi] into `out`. Anything else (an
/// empty value, trailing junk, a sign on a count, NaN, infinity, out of
/// range) names the flag on stderr and returns false.
template <typename T>
bool parse_number(const std::string& flag, const char* v, T lo, T* out,
                  T hi = std::numeric_limits<T>::max()) {
  const char* end = v + std::strlen(v);
  T x = 0;
  const auto [ptr, ec] = std::from_chars(v, end, x);
  if (ec != std::errc() || ptr != end || !(x >= lo && x <= hi)) {
    std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), v);
    return false;
  }
  *out = x;
  return true;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return false;
      o.workload = v;
    } else if (arg == "--policy") {
      const char* v = next();
      if (v == nullptr) return false;
      o.policy = v;
    } else if (arg == "--lambda") {
      const char* v = next();
      if (v == nullptr || !parse_number(arg, v, 0.0, &o.lambda)) return false;
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr || !parse_number(arg, v, kPositiveMin, &o.scale)) return false;
    } else if (arg == "--gpus") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 0, &o.gpus)) return false;
    } else if (arg == "--bus") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 0, &o.bus)) return false;
    } else if (arg == "--samples") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 1, &o.samples)) return false;
    } else if (arg == "--running") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 0, &o.running)) return false;
    } else if (arg == "--tier") {
      const char* v = next();
      if (v == nullptr) return false;
      o.tier = v;
    } else if (arg == "--ber") {
      const char* v = next();
      if (v == nullptr || !parse_number(arg, v, 0.0, &o.ber, 1.0)) return false;
    } else if (arg == "--drop") {
      const char* v = next();
      if (v == nullptr || !parse_number(arg, v, 0.0, &o.drop, 1.0)) return false;
    } else if (arg == "--topology") {
      const char* v = next();
      if (v == nullptr) return false;
      o.topology = v;
    } else if (arg == "--gpus-per-node") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 1, &o.gpus_per_node)) {
        return false;
      }
    } else if (arg == "--internode-bw-ratio") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 1, &o.internode_bw_ratio)) {
        return false;
      }
    } else if (arg == "--fault-episodes") {
      const char* v = next();
      if (v == nullptr) return false;
      o.fault_episodes = v;
    } else if (arg == "--allow-shrink") {
      o.allow_shrink = true;
    } else if (arg == "--characterize") {
      o.characterize = true;
    } else if (arg == "--json") {
      o.json = true;
    } else if (arg == "--dump-trace") {
      const char* v = next();
      if (v == nullptr) return false;
      o.dump_trace = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      o.trace_out = v;
    } else if (arg == "--trace-limit") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::size_t>(arg, v, 1, &o.trace_limit)) {
        return false;
      }
    } else if (arg == "--simd") {
      const char* v = next();
      if (v == nullptr) return false;
      o.simd = v;
    } else if (arg == "--collective") {
      const char* v = next();
      if (v == nullptr) return false;
      o.collective = v;
    } else if (arg == "--coll-kb") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 1, &o.coll_kb)) return false;
    } else if (arg == "--coll-fill") {
      const char* v = next();
      if (v == nullptr) return false;
      o.coll_fill = v;
    } else if (arg == "--coll-op") {
      const char* v = next();
      if (v == nullptr) return false;
      o.coll_op = v;
    } else if (arg == "--coll-window") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 1, &o.coll_window)) return false;
    } else if (arg == "--coll-lines-per-block") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 1, &o.coll_lines_per_block)) {
        return false;
      }
    } else if (arg == "--coll-root") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 0, &o.coll_root)) return false;
    } else if (arg == "--coll-algo") {
      const char* v = next();
      if (v == nullptr) return false;
      o.coll_algo = v;
    } else if (arg == "--coll-trunk-lines-per-block") {
      const char* v = next();
      if (v == nullptr || !parse_number<std::uint32_t>(arg, v, 1, &o.coll_trunk_lpb)) {
        return false;
      }
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void usage() {
  std::puts(
      "usage: simulate [--workload AES|BS|FIR|GD|KM|MT|SC] "
      "[--policy none|fpc|bdi|cpack|adaptive]\n"
      "                [--lambda F] [--scale F] [--gpus N] [--bus B/cyc]\n"
      "                [--samples N] [--running N] [--tier chip|die|package|node]\n"
      "                [--ber RATE] [--drop RATE]\n"
      "                [--topology bus|switch|hier|hier-fattree|hier-torus]\n"
      "                [--gpus-per-node N] [--internode-bw-ratio R]\n"
      "                [--fault-episodes SPEC] [--allow-shrink]\n"
      "                [--characterize] [--json] [--dump-trace out.csv]\n"
      "                [--trace-out out.json] [--trace-limit EVENTS]\n"
      "                [--simd scalar|avx2|neon]\n"
      "                [--collective allreduce|allgather|reducescatter|broadcast]\n"
      "                [--coll-kb KB] [--coll-fill zero|lowrange|ramp|random]\n"
      "                [--coll-op sum|max] [--coll-window LINES] [--coll-root RANK]\n"
      "                [--coll-lines-per-block LINES] [--coll-algo auto|flat|hier]\n"
      "                [--coll-trunk-lines-per-block LINES]\n"
      "  SPEC is ';'-separated clauses: down:A-B@START+DUR | flap:A-B@START+DURxCOUNT/PERIOD\n"
      "  | gpufail:G@START (ticks; A,B,G are GPU indices)");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  if (!o.simd.empty() && !simd::set_backend(o.simd)) {
    std::fprintf(stderr, "unknown or unavailable SIMD backend: %s\n", o.simd.c_str());
    return 2;
  }

  SystemConfig cfg;
  cfg.num_gpus = o.gpus;
  cfg.bus.bytes_per_cycle = o.bus;
  cfg.characterize = o.characterize;
  cfg.fault.bit_error_rate = o.ber;
  cfg.fault.drop_rate = o.drop;
  // --topology pins the fabric explicitly (including "bus", which disables
  // the MGCOMP_TOPOLOGY sweep).
  if (!o.topology.empty()) {
    FabricKind kind = FabricKind::kBus;
    HierGraph graph = cfg.hier.graph;
    if (!parse_topology(o.topology, &kind, &graph)) {
      std::fprintf(stderr, "unknown topology: %s\n", o.topology.c_str());
      return 2;
    }
    cfg.fabric = kind;
    cfg.hier.graph = graph;
  }
  if (o.gpus_per_node != 0) cfg.hier.gpus_per_node = o.gpus_per_node;
  if (o.internode_bw_ratio != 0) cfg.hier.internode_bw_ratio = o.internode_bw_ratio;
  if (!o.fault_episodes.empty()) {
    std::string err;
    if (!parse_fault_episodes(o.fault_episodes, &cfg.episodes, &err)) {
      std::fprintf(stderr, "bad --fault-episodes: %s\n", err.c_str());
      return 2;
    }
  }
  if (!o.dump_trace.empty()) cfg.trace_samples = 5000;
  if (!o.trace_out.empty()) cfg.trace_events = o.trace_limit;
  if (o.tier == "chip") {
    cfg.energy_tier = FabricTier::kOnChip;
  } else if (o.tier == "die") {
    cfg.energy_tier = FabricTier::kInterDie;
  } else if (o.tier == "package") {
    cfg.energy_tier = FabricTier::kInterPackage;
  } else if (o.tier == "node") {
    cfg.energy_tier = FabricTier::kInterNode;
  } else {
    std::fprintf(stderr, "unknown tier: %s\n", o.tier.c_str());
    return 2;
  }
  if (o.policy == "none") {
    cfg.policy = make_no_compression_policy();
  } else if (o.policy == "fpc") {
    cfg.policy = make_static_policy(CodecId::kFpc);
  } else if (o.policy == "bdi") {
    cfg.policy = make_static_policy(CodecId::kBdi);
  } else if (o.policy == "cpack") {
    cfg.policy = make_static_policy(CodecId::kCpackZ);
  } else if (o.policy == "adaptive") {
    cfg.policy = make_adaptive_policy(AdaptiveParams{
        .lambda = o.lambda, .sample_transfers = o.samples, .running_transfers = o.running});
  } else {
    usage();
    return 2;
  }

  if (!o.collective.empty()) {
    CollectiveConfig ccfg;
    if (!parse_collective_kind(o.collective, &ccfg.kind)) {
      std::fprintf(stderr, "unknown collective: %s\n", o.collective.c_str());
      return 2;
    }
    if (!parse_collective_fill(o.coll_fill, &ccfg.fill)) {
      std::fprintf(stderr, "unknown collective fill: %s\n", o.coll_fill.c_str());
      return 2;
    }
    if (o.coll_op == "sum") {
      ccfg.op = ReduceOp::kSum;
    } else if (o.coll_op == "max") {
      ccfg.op = ReduceOp::kMax;
    } else {
      std::fprintf(stderr, "unknown reduce op: %s\n", o.coll_op.c_str());
      return 2;
    }
    ccfg.lines_per_rank = static_cast<std::size_t>(o.coll_kb) * 1024 / kLineBytes;
    ccfg.window = o.coll_window;
    ccfg.lines_per_block = o.coll_lines_per_block;
    ccfg.root = o.coll_root;
    ccfg.allow_shrink = o.allow_shrink;
    if (!parse_collective_algo(o.coll_algo, &ccfg.algo)) {
      std::fprintf(stderr, "unknown collective algo: %s\n", o.coll_algo.c_str());
      return 2;
    }
    ccfg.trunk_lines_per_block = o.coll_trunk_lpb;

    MultiGpuSystem sys(std::move(cfg));
    const CollectiveOutcome out = run_collective(sys, ccfg);
    const RunResult& r = out.run;
    const CollectiveStats& st = r.collective;
    if (out.status != CollectiveStatus::kFailed && !out.verified) {
      std::fprintf(stderr, "collective verification FAILED\n");
      return 1;
    }
    std::string survivors;
    for (const std::uint32_t s : out.surviving_ranks) {
      if (!survivors.empty()) survivors += ",";
      survivors += std::to_string(s);
    }
    char digest[20];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(out.data_digest));
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(collective_fingerprint(out)));
    if (o.json) {
      JsonObject j;
      j.field("collective", st.op)
          .field("policy", o.policy)
          .field("algo", st.algo)
          .field("nodes", static_cast<std::uint64_t>(st.nodes))
          .field("trunk_lines_per_block",
                 static_cast<std::uint64_t>(st.trunk_lines_per_block))
          .field("trunk_messages", r.bus.trunk_messages)
          .field("trunk_wire_bytes", r.bus.trunk_wire_bytes)
          .field("ranks", static_cast<std::uint64_t>(st.ranks))
          .field("bytes_per_rank", st.bytes_per_rank)
          .field("verified", static_cast<std::uint64_t>(out.verified ? 1 : 0))
          .field("data_digest", std::string(digest))
          .field("fingerprint", std::string(fp))
          .field("steps", st.steps)
          .field("line_transfers", st.line_transfers)
          .field("reduced_lines", st.reduced_lines)
          .field("payload_bytes", st.payload_bytes)
          .field("duration_cycles", static_cast<std::uint64_t>(st.duration))
          .field("bus_factor", st.bus_factor)
          .field("alg_bytes_per_cycle", st.alg_bytes_per_cycle())
          .field("bus_bytes_per_cycle", st.bus_bytes_per_cycle())
          .field("bus_busy_cycles", static_cast<std::uint64_t>(r.bus.busy_cycles))
          .field("inter_gpu_traffic_bytes", r.inter_gpu_traffic_bytes())
          .field("payload_raw_bits", r.bus.inter_gpu_payload_raw_bits)
          .field("payload_wire_bits", r.bus.inter_gpu_payload_wire_bits)
          .field("fabric_energy_pj", r.fabric_energy_pj)
          .field("crc_failures", r.link.crc_failures)
          .field("retransmissions", r.link.retransmissions())
          .field("hard_failures", r.link.hard_failures)
          .field("link_errors_dropped", r.link_errors_dropped)
          .field("status", std::string(to_string(out.status)))
          .field("error_kind", std::string(to_string(out.error.kind)))
          .field("attempts", static_cast<std::uint64_t>(out.attempts))
          .field("partial", static_cast<std::uint64_t>(out.partial ? 1 : 0))
          .field("surviving_ranks", survivors)
          .field("health_transitions", r.health.transitions())
          .field("health_link_down", r.health.link_down)
          .field("health_link_recovered", r.health.link_recovered)
          .field("health_gpu_down", r.health.gpu_down)
          .field("health_probes_sent", r.health.probes_sent);
      std::printf("%s\n", j.to_string().c_str());
    } else {
      std::printf("%s, %u ranks, %llu KB/rank, policy %s, fill %s, algo %s: %s\n",
                  st.op.c_str(), st.ranks,
                  static_cast<unsigned long long>(st.bytes_per_rank / 1024),
                  o.policy.c_str(), o.coll_fill.c_str(), st.algo.c_str(),
                  std::string(to_string(out.status)).c_str());
      if (r.bus.trunk_messages > 0) {
        std::printf("  trunk traffic         %12llu bytes in %llu messages "
                    "(%llu busy cycles)\n",
                    static_cast<unsigned long long>(r.bus.trunk_wire_bytes),
                    static_cast<unsigned long long>(r.bus.trunk_messages),
                    static_cast<unsigned long long>(r.bus.trunk_busy_cycles));
      }
      if (out.status != CollectiveStatus::kCompleted) {
        std::printf("  recovery              attempts %u, error %s "
                    "(rank %u <- peer %u, step %llu, tick %llu)%s\n",
                    out.attempts, std::string(to_string(out.error.kind)).c_str(),
                    out.error.rank, out.error.peer,
                    static_cast<unsigned long long>(out.error.step),
                    static_cast<unsigned long long>(out.error.tick),
                    out.partial ? ", partial result" : "");
        std::printf("  survivors             %s\n", survivors.c_str());
        std::printf("  health                %llu transitions (link down %llu, recovered "
                    "%llu, gpu down %llu), %llu probes\n",
                    static_cast<unsigned long long>(r.health.transitions()),
                    static_cast<unsigned long long>(r.health.link_down),
                    static_cast<unsigned long long>(r.health.link_recovered),
                    static_cast<unsigned long long>(r.health.gpu_down),
                    static_cast<unsigned long long>(r.health.probes_sent));
      }
      std::printf("  duration              %12llu cycles\n",
                  static_cast<unsigned long long>(st.duration));
      std::printf("  steps / line reads    %12llu / %llu (%llu reduced)\n",
                  static_cast<unsigned long long>(st.steps),
                  static_cast<unsigned long long>(st.line_transfers),
                  static_cast<unsigned long long>(st.reduced_lines));
      std::printf("  alg / bus bandwidth   %12.3f / %.3f B/cycle (factor %.3f)\n",
                  st.alg_bytes_per_cycle(), st.bus_bytes_per_cycle(), st.bus_factor);
      std::printf("  bus busy              %12llu cycles\n",
                  static_cast<unsigned long long>(r.bus.busy_cycles));
      std::printf("  payload raw -> wire   %12llu -> %llu bits (%.2fx)\n",
                  static_cast<unsigned long long>(r.bus.inter_gpu_payload_raw_bits),
                  static_cast<unsigned long long>(r.bus.inter_gpu_payload_wire_bits),
                  r.bus.inter_gpu_payload_wire_bits > 0
                      ? static_cast<double>(r.bus.inter_gpu_payload_raw_bits) /
                            static_cast<double>(r.bus.inter_gpu_payload_wire_bits)
                      : 1.0);
      if (r.link.crc_failures + r.link.retransmissions() > 0) {
        std::printf("  crc fail / retrans    %12llu / %llu (hard failures %llu)\n",
                    static_cast<unsigned long long>(r.link.crc_failures),
                    static_cast<unsigned long long>(r.link.retransmissions()),
                    static_cast<unsigned long long>(r.link.hard_failures));
      }
      std::printf("  digest %s  fingerprint %s\n", digest, fp);
    }
    return out.status == CollectiveStatus::kFailed ? 1 : 0;
  }

  auto wl = make_workload(o.workload, o.scale);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }

  if (!o.json) {
    std::printf("%s (%s), policy %s, %u GPUs, %u B/cycle, scale %.2f\n",
                std::string(wl->name()).c_str(), std::string(wl->abbrev()).c_str(),
                o.policy.c_str(), o.gpus, o.bus, o.scale);
  }

  const RunResult r = run_workload(std::move(cfg), *wl);

  if (!o.trace_out.empty()) {
    if (std::FILE* f = std::fopen(o.trace_out.c_str(), "w")) {
      std::fwrite(r.trace_json.data(), 1, r.trace_json.size(), f);
      std::fclose(f);
      if (!o.json) {
        std::printf("wrote %llu trace events (%llu evicted) to %s\n",
                    static_cast<unsigned long long>(r.trace_events_recorded -
                                                    r.trace_events_dropped),
                    static_cast<unsigned long long>(r.trace_events_dropped),
                    o.trace_out.c_str());
      }
    } else {
      std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
  }

  if (o.json) {
    JsonObject out;
    out.field("workload", o.workload)
        .field("policy", o.policy)
        .field("scale", o.scale)
        .field("gpus", static_cast<std::uint64_t>(o.gpus))
        .field("exec_cycles", static_cast<std::uint64_t>(r.exec_ticks))
        .field("bus_busy_cycles", static_cast<std::uint64_t>(r.bus.busy_cycles))
        .field("remote_reads", r.remote_reads())
        .field("remote_writes", r.remote_writes())
        .field("inter_gpu_traffic_bytes", r.inter_gpu_traffic_bytes())
        .field("inter_gpu_offered_traffic_bytes", r.bus.inter_gpu_offered_wire_bytes)
        .field("payload_raw_bits", r.bus.inter_gpu_payload_raw_bits)
        .field("payload_wire_bits", r.bus.inter_gpu_payload_wire_bits)
        .field("offered_payload_raw_bits", r.bus.inter_gpu_offered_payload_raw_bits)
        .field("offered_payload_wire_bits", r.bus.inter_gpu_offered_payload_wire_bits)
        .field("fabric_energy_pj", r.fabric_energy_pj)
        .field("compressor_energy_pj", r.compressor_energy_pj)
        .field("decompressor_energy_pj", r.decompressor_energy_pj)
        .field("l1v_hit_rate", r.l1v.hit_rate())
        .field("l2_hit_rate", r.l2.hit_rate())
        .field("crc_failures", r.link.crc_failures)
        .field("retransmissions", r.link.retransmissions())
        .field("duplicates_suppressed", r.link.duplicates_suppressed)
        .field("hard_failures", r.link.hard_failures)
        .field("link_errors_dropped", r.link_errors_dropped)
        .field("health_transitions", r.health.transitions())
        .field("health_link_down", r.health.link_down)
        .field("health_link_recovered", r.health.link_recovered)
        .field("health_gpu_down", r.health.gpu_down)
        .field("health_probes_sent", r.health.probes_sent)
        .field("degrade_events", r.policy_stats.degrade_events)
        .field("goodput_fraction", r.goodput_fraction())
        .field("raw_throughput_bytes_per_cycle", r.raw_throughput_bytes_per_cycle())
        .field("remote_read_latency_count", r.remote_read_latency.count())
        .field("remote_read_latency_p50", r.remote_read_latency.percentile(0.50))
        .field("remote_read_latency_p95", r.remote_read_latency.percentile(0.95))
        .field("remote_read_latency_p99", r.remote_read_latency.percentile(0.99))
        .field("remote_read_latency_max",
               static_cast<std::uint64_t>(r.remote_read_latency.max()))
        .field("remote_write_latency_count", r.remote_write_latency.count())
        .field("remote_write_latency_p50", r.remote_write_latency.percentile(0.50))
        .field("remote_write_latency_p95", r.remote_write_latency.percentile(0.95))
        .field("remote_write_latency_p99", r.remote_write_latency.percentile(0.99))
        .field("remote_write_latency_max",
               static_cast<std::uint64_t>(r.remote_write_latency.max()))
        .field("bulk_read_latency_count", r.bulk_read_latency.count())
        .field("bulk_read_latency_p50", r.bulk_read_latency.percentile(0.50))
        .field("bulk_read_latency_p95", r.bulk_read_latency.percentile(0.95))
        .field("bulk_read_latency_p99", r.bulk_read_latency.percentile(0.99))
        .field("bulk_read_latency_max",
               static_cast<std::uint64_t>(r.bulk_read_latency.max()))
        .field("bulk_write_latency_count", r.bulk_write_latency.count())
        .field("bulk_write_latency_p50", r.bulk_write_latency.percentile(0.50))
        .field("bulk_write_latency_p95", r.bulk_write_latency.percentile(0.95))
        .field("bulk_write_latency_p99", r.bulk_write_latency.percentile(0.99))
        .field("bulk_write_latency_max",
               static_cast<std::uint64_t>(r.bulk_write_latency.max()))
        .field("bulk_payloads", r.bulk_payloads)
        .field("bulk_raw_bytes", r.bulk_raw_bytes)
        .field("bulk_wire_payload_bytes", r.bulk_wire_payload_bytes)
        .field("pool_hits", r.pool_hits)
        .field("pool_misses", r.pool_misses)
        .field("bulk_pool_misses", r.bulk_pool_misses);
    if (!o.trace_out.empty()) {
      out.field("trace_events_recorded", r.trace_events_recorded)
          .field("trace_events_dropped", r.trace_events_dropped);
    }
    std::printf("%s\n", out.to_string().c_str());
    return 0;
  }

  std::printf("\nexecution time        %12llu cycles (%.3f ms @ 1 GHz)\n",
              static_cast<unsigned long long>(r.exec_ticks),
              static_cast<double>(r.exec_ticks) / 1e6);
  std::printf("bus busy              %12llu cycles (%.1f%% utilization)\n",
              static_cast<unsigned long long>(r.bus.busy_cycles),
              100.0 * static_cast<double>(r.bus.busy_cycles) /
                  static_cast<double>(r.exec_ticks));
  std::printf("remote reads/writes   %12llu / %llu\n",
              static_cast<unsigned long long>(r.remote_reads()),
              static_cast<unsigned long long>(r.remote_writes()));
  std::printf("inter-GPU traffic     %12llu bytes\n",
              static_cast<unsigned long long>(r.inter_gpu_traffic_bytes()));
  std::printf("payload raw -> wire   %12llu -> %llu bits (%.2fx)\n",
              static_cast<unsigned long long>(r.bus.inter_gpu_payload_raw_bits),
              static_cast<unsigned long long>(r.bus.inter_gpu_payload_wire_bits),
              r.bus.inter_gpu_payload_wire_bits > 0
                  ? static_cast<double>(r.bus.inter_gpu_payload_raw_bits) /
                        static_cast<double>(r.bus.inter_gpu_payload_wire_bits)
                  : 1.0);
  std::printf("link energy           %15.2f uJ (fabric %.2f + comp %.2f + decomp %.2f)\n",
              r.total_link_energy_pj() / 1e6, r.fabric_energy_pj / 1e6,
              r.compressor_energy_pj / 1e6, r.decompressor_energy_pj / 1e6);
  std::printf("caches (hit rates)    L1V %.1f%%  L1S %.1f%%  L2 %.1f%%\n",
              100.0 * r.l1v.hit_rate(), 100.0 * r.l1s.hit_rate(), 100.0 * r.l2.hit_rate());
  if (r.remote_read_latency.count() > 0) {
    std::printf("remote read latency   p50 %.0f  p95 %.0f  p99 %.0f  max %llu cycles\n",
                r.remote_read_latency.percentile(0.50),
                r.remote_read_latency.percentile(0.95),
                r.remote_read_latency.percentile(0.99),
                static_cast<unsigned long long>(r.remote_read_latency.max()));
  }
  if (r.remote_write_latency.count() > 0) {
    std::printf("remote write latency  p50 %.0f  p95 %.0f  p99 %.0f  max %llu cycles\n",
                r.remote_write_latency.percentile(0.50),
                r.remote_write_latency.percentile(0.95),
                r.remote_write_latency.percentile(0.99),
                static_cast<unsigned long long>(r.remote_write_latency.max()));
  }
  if (r.bulk_read_latency.count() > 0) {
    std::printf("bulk read latency     p50 %.0f  p95 %.0f  p99 %.0f  max %llu cycles\n",
                r.bulk_read_latency.percentile(0.50), r.bulk_read_latency.percentile(0.95),
                r.bulk_read_latency.percentile(0.99),
                static_cast<unsigned long long>(r.bulk_read_latency.max()));
  }
  if (r.bulk_write_latency.count() > 0) {
    std::printf("bulk write latency    p50 %.0f  p95 %.0f  p99 %.0f  max %llu cycles\n",
                r.bulk_write_latency.percentile(0.50),
                r.bulk_write_latency.percentile(0.95),
                r.bulk_write_latency.percentile(0.99),
                static_cast<unsigned long long>(r.bulk_write_latency.max()));
  }
  if (r.bulk_payloads > 0) {
    std::printf("bulk payloads         %12llu (%llu -> %llu bytes on the wire, "
                "pool misses %llu)\n",
                static_cast<unsigned long long>(r.bulk_payloads),
                static_cast<unsigned long long>(r.bulk_raw_bytes),
                static_cast<unsigned long long>(r.bulk_wire_payload_bytes),
                static_cast<unsigned long long>(r.bulk_pool_misses));
  }

  std::printf("\nwire payloads by codec:\n");
  for (const CodecId id :
       {CodecId::kNone, CodecId::kFpc, CodecId::kBdi, CodecId::kCpackZ}) {
    const auto i = static_cast<std::size_t>(id);
    if (r.policy_stats.wire_counts[i] == 0) continue;
    std::printf("  %-10s %12llu\n", std::string(codec_name(id)).c_str(),
                static_cast<unsigned long long>(r.policy_stats.wire_counts[i]));
  }
  if (r.policy_stats.votes_taken > 0) {
    std::printf("adaptive votes: %llu (wins:",
                static_cast<unsigned long long>(r.policy_stats.votes_taken));
    for (const CodecId id :
         {CodecId::kNone, CodecId::kFpc, CodecId::kBdi, CodecId::kCpackZ}) {
      const auto i = static_cast<std::size_t>(id);
      if (r.policy_stats.vote_wins[i] > 0) {
        std::printf(" %s=%llu", std::string(codec_name(id)).c_str(),
                    static_cast<unsigned long long>(r.policy_stats.vote_wins[i]));
      }
    }
    std::printf(")\n");
  }

  if (r.link.crc_failures + r.link.retransmissions() + r.faults.total_faults() > 0) {
    std::printf("\nlink reliability:\n");
    std::printf("  injected faults       %llu (bit errors %llu, drops %llu, dups %llu, "
                "delays %llu)\n",
                static_cast<unsigned long long>(r.faults.total_faults()),
                static_cast<unsigned long long>(r.faults.bit_errors),
                static_cast<unsigned long long>(r.faults.drops),
                static_cast<unsigned long long>(r.faults.duplicates),
                static_cast<unsigned long long>(r.faults.delays));
    std::printf("  crc failures / NACKs  %llu / %llu sent, %llu received\n",
                static_cast<unsigned long long>(r.link.crc_failures),
                static_cast<unsigned long long>(r.link.nacks_sent),
                static_cast<unsigned long long>(r.link.nacks_received));
    std::printf("  retransmissions       %llu (fast %llu, timeout %llu, replay %llu)\n",
                static_cast<unsigned long long>(r.link.retransmissions()),
                static_cast<unsigned long long>(r.link.fast_retransmits),
                static_cast<unsigned long long>(r.link.timeout_retransmits),
                static_cast<unsigned long long>(r.link.replay_hits));
    std::printf("  dups suppressed       %llu, hard failures %llu, backoff %llu cycles\n",
                static_cast<unsigned long long>(r.link.duplicates_suppressed),
                static_cast<unsigned long long>(r.link.hard_failures),
                static_cast<unsigned long long>(r.link.backoff_cycles));
    std::printf("  policy degrades       %llu events, %llu raw transfers\n",
                static_cast<unsigned long long>(r.policy_stats.degrade_events),
                static_cast<unsigned long long>(r.policy_stats.degraded_transfers));
    std::printf("  goodput               %.4f of %0.3f raw B/cycle\n",
                r.goodput_fraction(), r.raw_throughput_bytes_per_cycle());
    for (const LinkError& e : r.link_errors) {
      std::printf("  LINK ERROR: gpu%u %s addr=0x%llx after %u retries\n", e.gpu.value,
                  std::string(msg_type_name(e.op)).c_str(),
                  static_cast<unsigned long long>(e.addr), e.retries);
    }
    if (r.link_errors_dropped > 0) {
      std::printf("  (+%llu link errors dropped beyond the record cap)\n",
                  static_cast<unsigned long long>(r.link_errors_dropped));
    }
    if (r.health.transitions() > 0) {
      std::printf("  health transitions    %llu (link down %llu, recovered %llu, "
                  "gpu down %llu), %llu probes\n",
                  static_cast<unsigned long long>(r.health.transitions()),
                  static_cast<unsigned long long>(r.health.link_down),
                  static_cast<unsigned long long>(r.health.link_recovered),
                  static_cast<unsigned long long>(r.health.gpu_down),
                  static_cast<unsigned long long>(r.health.probes_sent));
    }
  }

  if (r.bus.endpoints > 0) {
    std::printf("\ntraffic matrix (wire KB, src row -> dst col; endpoint 0 = CPU):\n");
    std::printf("      ");
    for (std::size_t d = 0; d < r.bus.endpoints; ++d) std::printf("%8zu", d);
    std::printf("\n");
    for (std::size_t s = 0; s < r.bus.endpoints; ++s) {
      std::printf("  %3zu ", s);
      for (std::size_t d = 0; d < r.bus.endpoints; ++d) {
        std::printf("%8.0f", static_cast<double>(r.bus.pair_bytes(s, d)) / 1024.0);
      }
      std::printf("\n");
    }
  }

  {
    // Fabric utilization timeline (one char per 8192-cycle bucket,
    // downsampled to <= 100 chars).
    const auto& hist = r.bus.busy_by_bucket;
    if (!hist.empty()) {
      const char* levels = " .:-=+*#";
      const std::size_t group = hist.size() > 100 ? (hist.size() + 99) / 100 : 1;
      std::string line;
      for (std::size_t b = 0; b < hist.size(); b += group) {
        double acc = 0.0;
        std::size_t n = 0;
        for (std::size_t i = b; i < std::min(b + group, hist.size()); ++i, ++n) {
          acc += r.bus.utilization(i);
        }
        const int idx = std::min(7, static_cast<int>(acc / static_cast<double>(n) * 8.0));
        line += levels[idx];
      }
      std::printf("\nfabric utilization timeline:\n  |%s|\n", line.c_str());
    }
  }

  if (!o.dump_trace.empty()) {
    CsvWriter csv({"sample", "entropy", "fpc_bits", "bdi_bits", "cpack_bits"});
    for (std::size_t i = 0; i < r.trace.size(); ++i) {
      const TraceSample& s = r.trace[i];
      csv.add_row({std::to_string(i), fmt(s.entropy, 4),
                   std::to_string(s.size_bits[static_cast<std::size_t>(CodecId::kFpc)]),
                   std::to_string(s.size_bits[static_cast<std::size_t>(CodecId::kBdi)]),
                   std::to_string(s.size_bits[static_cast<std::size_t>(CodecId::kCpackZ)])});
    }
    if (std::FILE* f = std::fopen(o.dump_trace.c_str(), "w")) {
      std::fwrite(csv.str().data(), 1, csv.str().size(), f);
      std::fclose(f);
      if (!o.json) {
        std::printf("\nwrote %zu trace samples to %s\n", r.trace.size(),
                    o.dump_trace.c_str());
      }
    } else {
      std::fprintf(stderr, "cannot write %s\n", o.dump_trace.c_str());
    }
  }

  if (o.characterize) {
    std::printf("\ncharacterization (all payloads recompressed offline):\n");
    std::printf("  entropy %.2f | ratios: BDI %.2f  FPC %.2f  C-Pack+Z %.2f\n",
                r.characterization.entropy.normalized(),
                r.characterization.ratio(CodecId::kBdi),
                r.characterization.ratio(CodecId::kFpc),
                r.characterization.ratio(CodecId::kCpackZ));
  }
  return 0;
}
