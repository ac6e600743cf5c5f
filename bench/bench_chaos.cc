// Chaos soak harness: collectives under scheduled fail-stop fault domains.
//
// Sweeps fabric x episode rate (orders of magnitude apart, plus a rate-0
// control) x collective kind x compression policy on 4 ranks with ring
// shrink enabled. The fabrics are the switch crossbar, a 4:1 fat-tree of
// two 2-GPU nodes and a 4:1 torus of four 1-GPU nodes, so episodes also
// hit pairs whose traffic crosses trunks. Each cell deterministically
// synthesizes a fault-episode schedule from a seeded RNG — link-down
// windows, flaps, and at most one GPU fail-stop — then runs the collective
// with small retry/health-probe budgets so detection and recovery happen at
// benchmark timescales. A cell's schedule depends on its rate, collective
// and policy, not on its fabric, so every fabric soaks the same schedules.
//
// The point is not bandwidth: it is that every configuration *terminates*
// with an explicit verdict (completed / degraded / failed) instead of
// hanging, and that the rate-0 control rows complete cleanly on the first
// attempt. tools/check_chaos.py enforces both on the emitted JSON.
//
//   ./bench_chaos [scale] [output.json]
//
// Defaults: scale 1.0 (16 KB per rank), BENCH_CHAOS.json in the working
// directory. CI runs scale 0.1 and checks the JSON with check_chaos.py.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "collective/collective.h"
#include "common/rng.h"

namespace {

using namespace mgcomp;

/// Nominal soak horizon the configured rate is quoted against (episodes
/// per 100k ticks of this span).
constexpr Tick kHorizon = 1u << 17;
/// Episode *starts* are drawn from this much tighter window: a healthy
/// run finishes within a few thousand ticks, so faults must land early to
/// intersect the collective's traffic at all. Recovery (flap re-up, probe
/// chains) then plays out over the larger horizon.
constexpr Tick kStartWindow = 1u << 11;

/// One soaked fabric: a name for the rows and its topology pin (4:1
/// trunks on the hierarchical ones).
struct FabricCase {
  const char* name;
  FabricKind kind;
  std::uint32_t gpus_per_node{4};
  HierGraph graph{HierGraph::kFatTree};
};

struct Row {
  std::string fabric;
  std::string collective;
  std::string policy;
  double rate{0.0};  ///< episodes per 100k ticks (0 = fault-free control)
  std::size_t episodes{0};
  CollectiveOutcome out;
};

/// Deterministic episode schedule for one cell: `rate` episodes per 100k
/// ticks over the horizon, mixing down-windows, flaps, and at most one GPU
/// fail-stop (so most cells stay recoverable on a 4-rank ring).
std::vector<FaultEpisode> make_episodes(double rate, std::uint64_t seed, std::uint32_t ranks) {
  std::vector<FaultEpisode> eps;
  if (rate <= 0.0) return eps;
  Rng rng(seed);
  const auto count = static_cast<std::size_t>(
      rate * static_cast<double>(kHorizon) / 100000.0 + 0.5);
  bool gpu_used = false;
  for (std::size_t i = 0; i < count + 1; ++i) {  // +1: at least one episode
    FaultEpisode e;
    const double what = rng.uniform();
    if (what < 0.15 && !gpu_used) {
      gpu_used = true;
      e.kind = EpisodeKind::kGpuFailStop;
      e.a = static_cast<std::uint32_t>(rng.below(ranks));
      e.start = rng.below(kStartWindow);
    } else if (what < 0.60) {
      e.kind = EpisodeKind::kLinkDown;
      e.a = static_cast<std::uint32_t>(rng.below(ranks));
      e.b = static_cast<std::uint32_t>(rng.below(ranks - 1));
      if (e.b >= e.a) ++e.b;  // distinct endpoints
      e.start = rng.below(kStartWindow);
      e.duration = 2048 + rng.below(1u << 15);
    } else {
      e.kind = EpisodeKind::kLinkFlap;
      e.a = static_cast<std::uint32_t>(rng.below(ranks));
      e.b = static_cast<std::uint32_t>(rng.below(ranks - 1));
      if (e.b >= e.a) ++e.b;
      e.start = rng.below(kStartWindow);
      e.duration = 1024 + rng.below(4096);
      e.count = 2 + static_cast<std::uint32_t>(rng.below(3));
      e.period = e.duration + 2048 + rng.below(8192);
    }
    eps.push_back(e);
  }
  return eps;
}

Row run_cell(const FabricCase& fabric, CollectiveKind kind, const bench::PolicyCase& pc,
             double rate, std::uint64_t seed, std::size_t lines_per_rank) {
  SystemConfig cfg;
  cfg.num_gpus = 4;
  cfg.fabric = fabric.kind;  // every soaked fabric routes around a single dead link
  cfg.hier.gpus_per_node = fabric.gpus_per_node;
  cfg.hier.internode_bw_ratio = 4;
  cfg.hier.graph = fabric.graph;
  cfg.policy = pc.factory;
  cfg.episodes = make_episodes(rate, seed, cfg.num_gpus);
  // Small budgets: detect, back off, and declare failure at bench
  // timescales instead of the conservative production defaults.
  cfg.retry.timeout = 2048;
  cfg.retry.timeout_cap = 1u << 14;
  cfg.retry.max_retries = 4;
  cfg.health.down_after = 2;
  cfg.health.up_after = 2;
  cfg.health.probe_interval = 4096;
  cfg.health.probe_budget = 16;
  cfg.health.heartbeat_interval = 2048;
  cfg.health.heartbeat_misses = 2;

  CollectiveConfig ccfg;
  ccfg.kind = kind;
  ccfg.lines_per_rank = lines_per_rank;
  ccfg.allow_shrink = true;
  ccfg.seed ^= seed;  // distinct payloads per cell, still deterministic

  Row row;
  row.fabric = fabric.name;
  row.collective = std::string(to_string(kind));
  row.policy = pc.label;
  row.rate = rate;
  row.episodes = cfg.episodes.size();
  MultiGpuSystem sys(std::move(cfg));
  row.out = run_collective(sys, ccfg);
  return row;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

std::string to_json(const std::vector<Row>& rows, double scale) {
  std::string out = "{\n";
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "  \"schema\": \"mgcomp-bench-chaos-v2\",\n  \"scale\": %g,\n"
                "  \"results\": [\n", scale);
  out += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const RunResult& run = r.out.run;
    out += "    {\"fabric\": ";
    append_json_string(out, r.fabric);
    out += ", \"collective\": ";
    append_json_string(out, r.collective);
    out += ", \"policy\": ";
    append_json_string(out, r.policy);
    std::snprintf(
        buf, sizeof(buf),
        ", \"rate\": %g, \"episodes\": %zu, \"verdict\": \"%s\", "
        "\"error_kind\": \"%s\", \"attempts\": %u, \"partial\": %s, "
        "\"verified\": %s, \"survivors\": %zu, \"duration_cycles\": %llu, "
        "\"line_transfers\": %llu, \"hard_failures\": %llu, "
        "\"link_errors_dropped\": %llu, \"health_transitions\": %llu, "
        "\"probes_sent\": %llu, \"rerouted\": %llu, \"episode_drops\": %llu, "
        "\"data_digest\": \"%016llx\"}",
        r.rate, r.episodes, std::string(to_string(r.out.status)).c_str(),
        std::string(to_string(r.out.error.kind)).c_str(), r.out.attempts,
        r.out.partial ? "true" : "false", r.out.verified ? "true" : "false",
        r.out.surviving_ranks.size(),
        static_cast<unsigned long long>(run.collective.duration),
        static_cast<unsigned long long>(run.collective.line_transfers),
        static_cast<unsigned long long>(run.link.hard_failures),
        static_cast<unsigned long long>(run.link_errors_dropped),
        static_cast<unsigned long long>(run.health.transitions()),
        static_cast<unsigned long long>(run.health.probes_sent),
        static_cast<unsigned long long>(run.bus.rerouted_messages),
        static_cast<unsigned long long>(run.bus.down_link_drops),
        static_cast<unsigned long long>(r.out.data_digest));
    out += buf;
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mgcomp::bench::reject_unknown_flags(argc, argv, 2);
  const double scale = bench::parse_scale(argc, argv);
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_CHAOS.json";

  // 16 KB per rank at scale 1.0; floor keeps every chunk non-empty.
  auto lines = static_cast<std::size_t>(256 * scale);
  if (lines < 16) lines = 16;

  // Four orders of magnitude of episode rate, plus the fault-free control.
  const double kRates[] = {0.0, 0.01, 0.1, 1.0, 10.0};
  const CollectiveKind kKinds[] = {CollectiveKind::kAllReduce, CollectiveKind::kAllGather,
                                   CollectiveKind::kReduceScatter, CollectiveKind::kBroadcast};
  std::vector<bench::PolicyCase> policies;
  policies.push_back({"raw", make_no_compression_policy()});
  policies.push_back({"adaptive", make_adaptive_policy(AdaptiveParams{.lambda = 6.0})});

  const FabricCase kFabrics[] = {
      {"switch", FabricKind::kSwitch},
      {"hier-fattree", FabricKind::kHier, 2, HierGraph::kFatTree},
      {"hier-torus", FabricKind::kHier, 1, HierGraph::kTorus},
  };

  std::printf("Chaos soak, %zu KB per rank (scale %.2f), 4 ranks\n\n",
              lines * kLineBytes / 1024, scale);
  std::printf("%-12s %-14s %-9s %7s %4s %10s %9s %8s %5s %10s\n", "fabric", "collective",
              "policy", "rate", "eps", "verdict", "error", "attempts", "part", "survivors");

  std::vector<Row> rows;
  for (const FabricCase& fabric : kFabrics) {
    std::uint64_t cell = 0;
    for (const double rate : kRates) {
      for (const CollectiveKind kind : kKinds) {
        for (const bench::PolicyCase& pc : policies) {
          // Per-cell seed: deterministic and distinct across the sweep.
          const std::uint64_t seed = 0xc4a05u + cell * 0x9e3779b97f4a7c15ULL;
          ++cell;
          rows.push_back(run_cell(fabric, kind, pc, rate, seed, lines));
          const Row& r = rows.back();
          std::printf("%-12s %-14s %-9s %7g %4zu %10s %9s %8u %5s %10zu\n", r.fabric.c_str(),
                      r.collective.c_str(), r.policy.c_str(), r.rate, r.episodes,
                      std::string(to_string(r.out.status)).c_str(),
                      std::string(to_string(r.out.error.kind)).c_str(), r.out.attempts,
                      r.out.partial ? "yes" : "no", r.out.surviving_ranks.size());
        }
      }
    }
  }

  // The harness's own gate: the control rows must be pristine, and a
  // verified=false row may only ever be a kFailed verdict.
  bool ok = true;
  for (const Row& r : rows) {
    if (r.rate == 0.0 &&
        (r.out.status != CollectiveStatus::kCompleted || r.out.attempts != 1)) {
      std::fprintf(stderr, "bench_chaos: control row not pristine (%s/%s/%s)\n",
                   r.fabric.c_str(), r.collective.c_str(), r.policy.c_str());
      ok = false;
    }
    if (!r.out.verified && r.out.status != CollectiveStatus::kFailed) {
      std::fprintf(stderr, "bench_chaos: unverified non-failed row (%s/%s/%s rate %g)\n",
                   r.fabric.c_str(), r.collective.c_str(), r.policy.c_str(), r.rate);
      ok = false;
    }
  }

  const std::string json = to_json(rows, scale);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_chaos: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "bench_chaos: GATE FAILED\n");
    return 1;
  }
  return 0;
}
