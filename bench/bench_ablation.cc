// Ablations for the design choices DESIGN.md calls out, plus the paper's
// extension points:
//   A. lambda fine sweep (the paper picks 6 empirically)
//   B. fabric-bandwidth sensitivity (compression matters less as the link
//      gets faster)
//   C. sampling cadence (7-sample vote / running-phase length)
//   D. single-codec adaptive gating (Section V last paragraph: on/off of
//      one integrated compressor)
//   E. fabric energy tiers (Section II: on-chip .. inter-node pJ/b)
//   G. bit-plane pre-coding layer (related work, Kim et al.)
//   H. fabric topology (bus vs crossbar switch)
// (F, I, J and K are retired letters; the others keep theirs so references
// to them hold.)
#include "bench_common.h"
#include "compression/bitplane.h"
#include "memory/global_memory.h"

namespace {

using namespace mgcomp;

void lambda_sweep(double scale) {
  std::printf("A. lambda sweep (adaptive, gmean over BS/SC/MT/AES)\n");
  std::printf("%8s %10s %10s\n", "lambda", "traffic", "time");
  const std::vector<std::string_view> wls = {"BS", "SC", "MT", "AES"};
  std::vector<RunResult> bases;
  for (const auto w : wls) bases.push_back(bench::run(w, scale, make_no_compression_policy()));
  for (const double lambda : {0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0}) {
    std::vector<double> traffic, time;
    for (std::size_t i = 0; i < wls.size(); ++i) {
      const RunResult r =
          bench::run(wls[i], scale, make_adaptive_policy(AdaptiveParams{.lambda = lambda}));
      traffic.push_back(static_cast<double>(r.inter_gpu_traffic_bytes()) /
                        static_cast<double>(bases[i].inter_gpu_traffic_bytes()));
      time.push_back(static_cast<double>(r.exec_ticks) /
                     static_cast<double>(bases[i].exec_ticks));
    }
    std::printf("%8.1f %10.3f %10.3f\n", lambda, bench::geomean(traffic),
                bench::geomean(time));
  }
  std::printf("\n");
}

void bandwidth_sweep(double scale) {
  std::printf("B. fabric bandwidth sweep (MT, adaptive l=6 vs none)\n");
  std::printf("%10s %14s %14s %10s\n", "B/cycle", "exec none", "exec adaptive", "speedup");
  for (const std::uint32_t bpc : {10u, 20u, 40u, 80u}) {
    SystemConfig base_cfg;
    base_cfg.bus.bytes_per_cycle = bpc;
    auto wl = make_workload("MT", scale);
    const RunResult base = run_workload(std::move(base_cfg), *wl);

    SystemConfig ad_cfg;
    ad_cfg.bus.bytes_per_cycle = bpc;
    ad_cfg.policy = make_adaptive_policy(AdaptiveParams{.lambda = 6.0});
    wl = make_workload("MT", scale);
    const RunResult ad = run_workload(std::move(ad_cfg), *wl);

    std::printf("%10u %14llu %14llu %9.2fx\n", bpc,
                static_cast<unsigned long long>(base.exec_ticks),
                static_cast<unsigned long long>(ad.exec_ticks),
                static_cast<double>(base.exec_ticks) / static_cast<double>(ad.exec_ticks));
  }
  std::printf("(expected: the faster the link, the smaller the win)\n\n");
}

void cadence_sweep(double scale) {
  std::printf("C. sampling cadence sweep (SC, lambda=6)\n");
  std::printf("%10s %10s %12s %12s %14s\n", "samples", "running", "traffic", "time",
              "sampled xfers");
  const RunResult base = bench::run("SC", scale, make_no_compression_policy());
  for (const auto& [samples, running] :
       std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {3, 100}, {7, 100}, {7, 300}, {7, 1000}, {15, 300}, {7, 5000}}) {
    const RunResult r = bench::run(
        "SC", scale,
        make_adaptive_policy(AdaptiveParams{
            .lambda = 6.0, .sample_transfers = samples, .running_transfers = running}));
    std::printf("%10u %10u %12.3f %12.3f %14llu\n", samples, running,
                static_cast<double>(r.inter_gpu_traffic_bytes()) /
                    static_cast<double>(base.inter_gpu_traffic_bytes()),
                static_cast<double>(r.exec_ticks) / static_cast<double>(base.exec_ticks),
                static_cast<unsigned long long>(r.policy_stats.sampled_transfers));
  }
  std::printf("\n");
}

void single_codec_gating(double scale) {
  std::printf("D. single-codec adaptive gating (Section V): BDI circuit only\n");
  std::printf("%-6s %16s %16s %16s\n", "Bench", "static BDI", "gated BDI", "full adaptive");
  for (const char* w : {"AES", "SC", "BS"}) {
    const RunResult base = bench::run(w, scale, make_no_compression_policy());
    const RunResult stat = bench::run(w, scale, make_static_policy(CodecId::kBdi));
    const RunResult gated = bench::run(
        w, scale,
        make_adaptive_policy(AdaptiveParams{.lambda = 6.0, .candidates = {CodecId::kBdi}}));
    const RunResult full =
        bench::run(w, scale, make_adaptive_policy(AdaptiveParams{.lambda = 6.0}));
    auto t = [&](const RunResult& r) {
      return static_cast<double>(r.exec_ticks) / static_cast<double>(base.exec_ticks);
    };
    std::printf("%-6s %16.3f %16.3f %16.3f\n", w, t(stat), t(gated), t(full));
  }
  std::printf("(gating should match static BDI where BDI helps and avoid its\n"
              " overhead where it does not, e.g. AES)\n\n");
}

void energy_tiers(double scale) {
  std::printf("E. fabric energy tiers (SC, adaptive l=6, energy vs no compression)\n");
  std::printf("%-14s %10s %12s\n", "tier", "pJ/b", "energy ratio");
  for (const FabricTier tier : {FabricTier::kOnChip, FabricTier::kInterDie,
                                FabricTier::kInterPackage, FabricTier::kInterNode}) {
    SystemConfig base_cfg;
    base_cfg.energy_tier = tier;
    auto wl = make_workload("SC", scale);
    const RunResult base = run_workload(std::move(base_cfg), *wl);

    SystemConfig ad_cfg;
    ad_cfg.energy_tier = tier;
    ad_cfg.policy = make_adaptive_policy(AdaptiveParams{.lambda = 6.0});
    wl = make_workload("SC", scale);
    const RunResult ad = run_workload(std::move(ad_cfg), *wl);

    const char* name = tier == FabricTier::kOnChip         ? "on-chip"
                       : tier == FabricTier::kInterDie     ? "inter-die"
                       : tier == FabricTier::kInterPackage ? "inter-package"
                                                           : "inter-node";
    std::printf("%-14s %10.1f %12.3f\n", name, fabric_pj_per_bit(tier),
                ad.total_link_energy_pj() / base.total_link_energy_pj());
  }
  std::printf("(compressor energy only pays off when moving bits is expensive;\n"
              " at on-chip cost the compressors can be a net loss)\n\n");
}

void bitplane_layer(double scale) {
  std::printf("G. bit-plane pre-coding layer (whole-buffer compression ratios)\n");
  std::printf("%-6s %10s %12s %12s %14s\n", "Bench", "C-Pack+Z", "BPC+C-Pack", "BDI",
              "BPC+BDI");
  CodecSet set;
  const Codec& cpack = set.get(CodecId::kCpackZ);
  const Codec& bdi = set.get(CodecId::kBdi);
  const BitplaneCodec bpc_cpack(cpack);
  const BitplaneCodec bpc_bdi(bdi);
  for (const auto abbrev : workload_abbrevs()) {
    GlobalMemory mem;
    auto wl = make_workload(abbrev, scale * 0.5);
    wl->setup(mem);
    for (std::size_t k = 0; k < wl->kernel_count(); ++k) (void)wl->generate_kernel(k, mem);
    std::uint64_t bits[4]{};
    std::uint64_t lines = 0;
    for (const auto& region : mem.regions()) {
      for (std::size_t off = 0; off < region.bytes; off += kLineBytes) {
        const Line l = mem.read_line(region.base + off);
        bits[0] += cpack.compress(l).size_bits;
        bits[1] += bpc_cpack.compress(l).size_bits;
        bits[2] += bdi.compress(l).size_bits;
        bits[3] += bpc_bdi.compress(l).size_bits;
        ++lines;
      }
    }
    const double raw = static_cast<double>(lines) * kLineBits;
    std::printf("%-6s %10.2f %12.2f %12.2f %14.2f\n", std::string(abbrev).c_str(),
                raw / static_cast<double>(bits[0]), raw / static_cast<double>(bits[1]),
                raw / static_cast<double>(bits[2]), raw / static_cast<double>(bits[3]));
  }
  std::printf("(pre-coding helps smooth/strided data; it can hurt already-sparse data)\n");
}

void fabric_topology(double scale) {
  std::printf("H. fabric topology: shared bus (paper) vs ideal crossbar switch\n");
  std::printf("%-6s %12s %12s %14s %14s\n", "Bench", "bus none", "bus ad6", "switch none",
              "switch ad6");
  for (const char* w : {"BS", "MT", "SC"}) {
    Tick exec[4];
    int i = 0;
    for (const FabricKind kind : {FabricKind::kBus, FabricKind::kSwitch}) {
      for (const bool adaptive : {false, true}) {
        SystemConfig cfg;
        cfg.fabric = kind;
        if (adaptive) cfg.policy = make_adaptive_policy(AdaptiveParams{.lambda = 6.0});
        auto wl = make_workload(w, scale);
        exec[i++] = run_workload(std::move(cfg), *wl).exec_ticks;
      }
    }
    std::printf("%-6s %12llu %12llu %14llu %14llu\n", w,
                static_cast<unsigned long long>(exec[0]),
                static_cast<unsigned long long>(exec[1]),
                static_cast<unsigned long long>(exec[2]),
                static_cast<unsigned long long>(exec[3]));
  }
  std::printf("(a higher-bisection fabric shrinks — but does not erase — the\n"
              " compression win: per-port serialization still charges for bytes)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  mgcomp::bench::reject_unknown_flags(argc, argv);
  const double scale = mgcomp::bench::parse_scale(argc, argv, 0.5);
  std::printf("Ablation studies (scale %.2f)\n\n", scale);
  lambda_sweep(scale);
  bandwidth_sweep(scale);
  cadence_sweep(scale);
  single_codec_gating(scale);
  energy_tiers(scale);
  bitplane_layer(scale);
  fabric_topology(scale);
  return 0;
}
