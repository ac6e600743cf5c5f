// Simulator-throughput benchmark: how fast the SIMULATOR itself runs, as
// opposed to how fast the simulated machine is.
//
// For every workload x policy case it measures wall time around
// run_workload() and reports events/sec (executed engine callbacks per
// wall second) and simulated-ticks/sec. The event schedule is a pure
// function of the config, so `events` is identical across simulator
// versions and events/sec ratios equal wall-time ratios — making
// BENCH_PERF.json directly comparable between commits.
//
//   ./bench_perf [scale] [output.json] [repeats]
//
// Defaults: scale 0.5, BENCH_PERF.json in the working directory, 3 repeats
// (best-of, to shed scheduler noise). Use a small scale (e.g. 0.05) for a
// CI smoke run. Build Release; a Debug build measures the assertions.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "collective/collective.h"

namespace {

using namespace mgcomp;
using Clock = std::chrono::steady_clock;

struct Measurement {
  std::string workload;
  std::string policy;
  double wall_ms{0.0};
  std::uint64_t events{0};
  Tick sim_ticks{0};

  [[nodiscard]] double events_per_sec() const noexcept {
    return wall_ms > 0.0 ? static_cast<double>(events) / (wall_ms / 1e3) : 0.0;
  }
  [[nodiscard]] double sim_ticks_per_sec() const noexcept {
    return wall_ms > 0.0 ? static_cast<double>(sim_ticks) / (wall_ms / 1e3) : 0.0;
  }
};

std::vector<bench::PolicyCase> perf_policies() {
  std::vector<bench::PolicyCase> v;
  v.push_back({"raw", make_no_compression_policy()});
  v.push_back({"FPC", make_static_policy(CodecId::kFpc)});
  v.push_back({"BDI", make_static_policy(CodecId::kBdi)});
  v.push_back({"C-Pack+Z", make_static_policy(CodecId::kCpackZ)});
  v.push_back({"adaptive", make_adaptive_policy(AdaptiveParams{})});
  return v;
}

Measurement measure(std::string_view abbrev, const bench::PolicyCase& c, double scale,
                    int repeats) {
  Measurement best;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = Clock::now();
    const RunResult r = bench::run(abbrev, scale, c.factory);
    const auto t1 = Clock::now();
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0)
            .count();
    if (rep == 0 || ms < best.wall_ms) {
      best.workload = std::string(abbrev);
      best.policy = c.label;
      best.wall_ms = ms;
      best.events = r.events_executed;
      best.sim_ticks = r.exec_ticks;
    }
  }
  return best;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

/// The bulk-transfer headline: the same all-reduce measured with per-line
/// pulls and with page-granularity bulk pulls. Simulated-machine numbers
/// (algorithm bandwidth in buffer bytes per fabric cycle), deterministic
/// for a fixed config — unlike the wall-time rows, directly comparable
/// across machines.
struct BulkCollective {
  std::uint32_t ranks{0};
  std::uint64_t lines_per_rank{0};
  std::uint32_t lines_per_block{0};
  double per_line_alg{0.0};
  double bulk_alg{0.0};
  bool verified{false};
};

std::string to_json(const std::vector<Measurement>& ms, const BulkCollective& bulk,
                    double scale, int repeats) {
  std::string out = "{\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"schema\": \"mgcomp-bench-perf-v1\",\n  \"scale\": %g,\n"
                "  \"repeats\": %d,\n  \"results\": [\n",
                scale, repeats);
  out += buf;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Measurement& m = ms[i];
    out += "    {\"workload\": ";
    append_json_string(out, m.workload);
    out += ", \"policy\": ";
    append_json_string(out, m.policy);
    std::snprintf(buf, sizeof(buf),
                  ", \"wall_ms\": %.3f, \"events\": %llu, \"sim_ticks\": %llu, "
                  "\"events_per_sec\": %.1f, \"sim_ticks_per_sec\": %.1f}",
                  m.wall_ms, static_cast<unsigned long long>(m.events),
                  static_cast<unsigned long long>(m.sim_ticks), m.events_per_sec(),
                  m.sim_ticks_per_sec());
    out += buf;
    out += i + 1 < ms.size() ? ",\n" : "\n";
  }
  // Aggregate: total wall time and overall events/sec, plus the adaptive-
  // only slice (the configuration the hot-path work targets).
  double total_ms = 0.0, adaptive_ms = 0.0;
  std::uint64_t total_events = 0, adaptive_events = 0;
  for (const Measurement& m : ms) {
    total_ms += m.wall_ms;
    total_events += m.events;
    if (m.policy == "adaptive") {
      adaptive_ms += m.wall_ms;
      adaptive_events += m.events;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "  ],\n  \"total\": {\"wall_ms\": %.3f, \"events\": %llu, "
                "\"events_per_sec\": %.1f},\n"
                "  \"adaptive\": {\"wall_ms\": %.3f, \"events\": %llu, "
                "\"events_per_sec\": %.1f}",
                total_ms, static_cast<unsigned long long>(total_events),
                total_ms > 0.0 ? static_cast<double>(total_events) / (total_ms / 1e3) : 0.0,
                adaptive_ms, static_cast<unsigned long long>(adaptive_events),
                adaptive_ms > 0.0 ? static_cast<double>(adaptive_events) / (adaptive_ms / 1e3)
                                  : 0.0);
  out += buf;
  if (bulk.ranks > 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"bulk_collective\": {\"ranks\": %u, \"lines_per_rank\": %llu, "
                  "\"lines_per_block\": %u, \"per_line_alg_bytes_per_cycle\": %.4f, "
                  "\"bulk_alg_bytes_per_cycle\": %.4f, \"alg_speedup\": %.3f, "
                  "\"verified\": %s}",
                  bulk.ranks, static_cast<unsigned long long>(bulk.lines_per_rank),
                  bulk.lines_per_block, bulk.per_line_alg, bulk.bulk_alg,
                  bulk.per_line_alg > 0.0 ? bulk.bulk_alg / bulk.per_line_alg : 0.0,
                  bulk.verified ? "true" : "false");
    out += buf;
  }
  out += "\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mgcomp::bench::reject_unknown_flags(argc, argv);
  const double scale = bench::parse_scale(argc, argv, 0.5);
  const std::string out_path = argc > 2 ? argv[2] : "BENCH_PERF.json";
  const int repeats = argc > 3 ? std::max(1, std::atoi(argv[3])) : 3;

#ifndef NDEBUG
  std::fprintf(stderr, "bench_perf: WARNING: assertions enabled — numbers below measure a "
                       "Debug build\n");
#endif

  std::vector<Measurement> results;
  std::printf("%-4s %-9s %10s %12s %14s %14s\n", "wl", "policy", "wall_ms", "events",
              "events/s", "sim_ticks/s");
  for (const auto abbrev : workload_abbrevs()) {
    for (const bench::PolicyCase& c : perf_policies()) {
      const Measurement m = measure(abbrev, c, scale, repeats);
      std::printf("%-4s %-9s %10.2f %12llu %14.0f %14.0f\n", m.workload.c_str(),
                  m.policy.c_str(), m.wall_ms, static_cast<unsigned long long>(m.events),
                  m.events_per_sec(), m.sim_ticks_per_sec());
      results.push_back(m);
    }
  }

  // Bulk-transfer headline: all-reduce at 8 ranks on the compressible fill,
  // per-line pulls vs page-granularity bulk pulls under the same adaptive
  // policy on the same build. Deterministic simulated-machine numbers, so
  // one run each suffices (no best-of repeats).
  auto coll_lines = static_cast<std::size_t>(1024 * scale);
  if (coll_lines < 64) coll_lines = 64;
  const auto coll_case = [&](std::uint32_t lines_per_block) {
    SystemConfig cfg;
    cfg.num_gpus = 8;
    cfg.policy = make_adaptive_policy(AdaptiveParams{});
    MultiGpuSystem sys(std::move(cfg));
    CollectiveConfig ccfg;
    ccfg.kind = CollectiveKind::kAllReduce;
    ccfg.fill = CollectiveFill::kLowRange;
    ccfg.lines_per_rank = coll_lines;
    ccfg.lines_per_block = lines_per_block;
    return run_collective(sys, ccfg);
  };
  const CollectiveOutcome per_line = coll_case(1);
  const CollectiveOutcome bulk_run = coll_case(64);
  BulkCollective bulk;
  bulk.ranks = 8;
  bulk.lines_per_rank = coll_lines;
  bulk.lines_per_block = 64;
  bulk.per_line_alg = per_line.run.collective.alg_bytes_per_cycle();
  bulk.bulk_alg = bulk_run.run.collective.alg_bytes_per_cycle();
  bulk.verified = per_line.verified && bulk_run.verified;
  std::printf("\nbulk all-reduce (8 ranks, lowrange): per-line %.3f B/cyc, "
              "bulk %.3f B/cyc (%.2fx), %s\n",
              bulk.per_line_alg, bulk.bulk_alg,
              bulk.per_line_alg > 0.0 ? bulk.bulk_alg / bulk.per_line_alg : 0.0,
              bulk.verified ? "verified" : "VERIFICATION FAILED");

  const std::string json = to_json(results, bulk, scale, repeats);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_perf: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
