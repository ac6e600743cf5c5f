// Pins the hot-path rewrite (probe-based sampling, slab event engine,
// payload pooling, bulk bitstream I/O) to the EXACT results of the
// original implementation.
//
// The golden values below are run_fingerprint() digests recorded from the
// pre-rewrite tree for every workload x policy/instrumentation case at
// scale 0.1. The fingerprint folds in every counter, histogram, energy,
// and characterization stat of the RunResult, with doubles hashed by bit
// pattern — so a single displaced event, a 1-ulp energy drift, or one
// mis-tallied Table VI pattern fails the suite. Any legitimate
// behavior-changing commit must re-record these values and say so.
// Beside the paper's bus, rows pin the switch crossbar, the reliability
// layer at BER 1e-5, link-flap and link-down fail-stop episodes, and a 4:1
// hierarchical fat-tree, each recorded at commit fd493be. Additionally,
// every golden runs once per available SIMD backend (scalar / AVX2 /
// NEON): backend selection must never change simulation results, only
// throughput, so all backends must reproduce the identical fingerprints.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/fingerprint.h"
#include "compression/simd/dispatch.h"
#include "core/system.h"
#include "workloads/all_workloads.h"

namespace mgcomp {
namespace {

constexpr double kScale = 0.1;

struct Golden {
  const char* scenario;  ///< fabric and fault set-up; see config_for()
  const char* workload;
  const char* label;
  std::uint64_t fingerprint;
};

// Recorded from the pre-rewrite implementation (commit 8519d25).
constexpr Golden kGoldens[] = {
    {"bus", "AES", "raw", 0x187c8636e856318dULL},
    {"bus", "AES", "fpc", 0x6adb673c8c597b46ULL},
    {"bus", "AES", "bdi", 0x221185d2c61263a1ULL},
    {"bus", "AES", "cpackz", 0x26232182e50686afULL},
    {"bus", "AES", "adaptive", 0x5d679b9b1fb4f3c3ULL},
    {"bus", "AES", "adaptive+charz", 0x18fdb15f0c25ca8fULL},
    {"bus", "BS", "raw", 0xe89832200e33eb2aULL},
    {"bus", "BS", "fpc", 0x1056171fb5a70d4cULL},
    {"bus", "BS", "bdi", 0x5e2108406e56c8faULL},
    {"bus", "BS", "cpackz", 0x61f577dc879b98c1ULL},
    {"bus", "BS", "adaptive", 0xb971d124f42f39a3ULL},
    {"bus", "BS", "adaptive+charz", 0xbfd3a4e7e38c1991ULL},
    {"bus", "FIR", "raw", 0x7d67b9b2aa34145bULL},
    {"bus", "FIR", "fpc", 0xb3ae993aecf0ad97ULL},
    {"bus", "FIR", "bdi", 0x79ecf9eef5241110ULL},
    {"bus", "FIR", "cpackz", 0xe0bf0390d7891283ULL},
    {"bus", "FIR", "adaptive", 0x3878b10fd03eb2daULL},
    {"bus", "FIR", "adaptive+charz", 0x04feec9e05f434cbULL},
    {"bus", "GD", "raw", 0xcffac5954a18e998ULL},
    {"bus", "GD", "fpc", 0x2fd7ad3c36464422ULL},
    {"bus", "GD", "bdi", 0x7e24224e11784447ULL},
    {"bus", "GD", "cpackz", 0x095e959e0b8d5729ULL},
    {"bus", "GD", "adaptive", 0xc509fb5b17a53da6ULL},
    {"bus", "GD", "adaptive+charz", 0x80ebe3e4a01c3b0cULL},
    {"bus", "KM", "raw", 0xdb901d738e484a03ULL},
    {"bus", "KM", "fpc", 0x8f4f0db1c3bda6ccULL},
    {"bus", "KM", "bdi", 0xc830e44f37588e4dULL},
    {"bus", "KM", "cpackz", 0x2760ab7c1d5fe5b4ULL},
    {"bus", "KM", "adaptive", 0x5ffefd0dc5b946e9ULL},
    {"bus", "KM", "adaptive+charz", 0x691a95ceebd6852aULL},
    {"bus", "MT", "raw", 0x4fa8559cc126741dULL},
    {"bus", "MT", "fpc", 0x38b243fc9ae8acb0ULL},
    {"bus", "MT", "bdi", 0x65e6546ceebad692ULL},
    {"bus", "MT", "cpackz", 0x8a1ec70327a4a1c4ULL},
    {"bus", "MT", "adaptive", 0xd7f080b64f348e16ULL},
    {"bus", "MT", "adaptive+charz", 0x317ddefcad5a9f3cULL},
    {"bus", "SC", "raw", 0x0ab9117df61bede9ULL},
    {"bus", "SC", "fpc", 0x8072f6c54832e926ULL},
    {"bus", "SC", "bdi", 0xc474289165e501d0ULL},
    {"bus", "SC", "cpackz", 0x3fa996ed22adce28ULL},
    {"bus", "SC", "adaptive", 0x9b987dfb183fc2f6ULL},
    {"bus", "SC", "adaptive+charz", 0xc54a87030970c553ULL},
    // Recorded at commit fd493be.
    {"switch", "AES", "raw", 0xcb883c60e3b44e08ULL},
    {"switch", "AES", "adaptive", 0x38c4c9897366e39aULL},
    {"switch", "BS", "raw", 0xf661b7afa1885abaULL},
    {"switch", "BS", "adaptive", 0x665944304d92d006ULL},
    {"switch", "FIR", "raw", 0x140091290ab6d256ULL},
    {"switch", "FIR", "adaptive", 0xc5875a388d797037ULL},
    {"switch", "GD", "raw", 0x59bed6db8dc93cfaULL},
    {"switch", "GD", "adaptive", 0x0598418db18677f1ULL},
    {"switch", "KM", "raw", 0xecfddd9bb8f74960ULL},
    {"switch", "KM", "adaptive", 0xe9ee07da59642415ULL},
    {"switch", "MT", "raw", 0x296312f484ecbb37ULL},
    {"switch", "MT", "adaptive", 0x79ff752f26db28e4ULL},
    {"switch", "SC", "raw", 0xcda56863cdabc922ULL},
    {"switch", "SC", "adaptive", 0x28bc407171c1e4deULL},
    {"lossy", "BS", "adaptive", 0xcb8de8c36bd83848ULL},
    {"lossy", "KM", "adaptive", 0xc2d4766983cc2ba6ULL},
    {"lossy", "SC", "adaptive", 0xa6b9389a2ddeed57ULL},
    {"flap", "KM", "adaptive", 0x7f93178085e1b039ULL},
    {"down", "KM", "adaptive", 0x96a3a66ca1857870ULL},
    {"hier", "AES", "adaptive", 0x4cc213fedfb0a6e0ULL},
    {"hier", "BS", "adaptive", 0xfc84fc7a1040b4ebULL},
    {"hier", "FIR", "adaptive", 0xb3f3dc70995665afULL},
    {"hier", "GD", "adaptive", 0xec8977ad5b5c0927ULL},
    {"hier", "KM", "adaptive", 0x800096af7584ef35ULL},
    {"hier", "MT", "adaptive", 0x4829631d3e778a78ULL},
    {"hier", "SC", "adaptive", 0xdf1c1e7e6888f2a7ULL},
};

struct CaseSetup {
  PolicyFactory factory;
  bool characterize{false};
  std::size_t trace_samples{0};
};

CaseSetup setup_for(const std::string& label) {
  if (label == "raw") return {make_no_compression_policy()};
  if (label == "fpc") return {make_static_policy(CodecId::kFpc)};
  if (label == "bdi") return {make_static_policy(CodecId::kBdi)};
  if (label == "cpackz") return {make_static_policy(CodecId::kCpackZ)};
  if (label == "adaptive") return {make_adaptive_policy(AdaptiveParams{})};
  if (label == "adaptive+charz") return {make_adaptive_policy(AdaptiveParams{}), true, 64};
  ADD_FAILURE() << "unknown case label " << label;
  return {make_no_compression_policy()};
}

/// The fabric and fault set-up of a golden row: "bus" (the paper's
/// machine), "switch" (the crossbar), "lossy" (switch at BER 1e-5, the
/// benchmark's lossy_switch mix), "flap" and "down" (switch with a
/// link-flap or link-down episode on GPU0-GPU1), and "hier" (two nodes of
/// two GPUs on 4:1 fat-tree trunks).
SystemConfig config_for(const std::string& scenario) {
  SystemConfig cfg;
  // Pin every fabric so a CI topology sweep (MGCOMP_TOPOLOGY=...) can't
  // re-route the goldens.
  cfg.fabric = FabricKind::kSwitch;
  if (scenario == "bus") {
    cfg.fabric = FabricKind::kBus;
  } else if (scenario == "lossy") {
    cfg.fault.bit_error_rate = 1e-5;
  } else if (scenario == "flap" || scenario == "down") {
    const char* spec = scenario == "flap" ? "flap:0-1@0+20000x3/40000" : "down:0-1@0+100000";
    std::string error;
    EXPECT_TRUE(parse_fault_episodes(spec, &cfg.episodes, &error)) << error;
  } else if (scenario == "hier") {
    cfg.fabric = FabricKind::kHier;
    cfg.hier.gpus_per_node = 2;
    cfg.hier.internode_bw_ratio = 4;
    cfg.hier.graph = HierGraph::kFatTree;
  } else if (scenario != "switch") {
    ADD_FAILURE() << "unknown scenario " << scenario;
  }
  return cfg;
}

/// run_fingerprint(), plus the health monitor's counters on episode rows:
/// they sit outside the run fingerprint, and the golden must pin them too.
std::uint64_t golden_digest(const RunResult& r, bool episodes) {
  if (!episodes) return run_fingerprint(r);
  FingerprintHasher f;
  f.add_u64(run_fingerprint(r));
  f.add_u64(r.health.link_suspect);
  f.add_u64(r.health.link_down);
  f.add_u64(r.health.link_recovered);
  f.add_u64(r.health.link_up);
  f.add_u64(r.health.gpu_suspect);
  f.add_u64(r.health.gpu_down);
  f.add_u64(r.health.probes_sent);
  f.add_u64(r.health.heartbeat_misses);
  return f.value();
}

/// One golden, replayed on one SIMD backend.
struct BackendGolden {
  simd::Backend backend;
  Golden golden;
};

std::vector<BackendGolden> backend_goldens() {
  std::vector<BackendGolden> cases;
  for (const simd::Backend b : simd::available_backends()) {
    for (const Golden& g : kGoldens) cases.push_back({b, g});
  }
  return cases;
}

class PerfIdentityTest : public testing::TestWithParam<BackendGolden> {};

TEST_P(PerfIdentityTest, FingerprintMatchesPreRewriteImplementation) {
  const Golden& g = GetParam().golden;
  ASSERT_TRUE(simd::set_backend(GetParam().backend));
  const CaseSetup c = setup_for(g.label);
  SystemConfig cfg = config_for(g.scenario);
  cfg.policy = c.factory;
  cfg.characterize = c.characterize;
  cfg.trace_samples = c.trace_samples;
  const bool episodes = !cfg.episodes.empty();
  auto wl = make_workload(g.workload, kScale);
  const RunResult r = run_workload(cfg, *wl);
  EXPECT_EQ(golden_digest(r, episodes), g.fingerprint)
      << g.scenario << " / " << g.workload << " / " << g.label << " on backend "
      << simd::backend_name(GetParam().backend)
      << ": results diverged from the recorded implementation";
  // The schedule itself must be non-trivial for the fingerprint to mean
  // anything, and each fault row must actually exercise its fault path.
  EXPECT_GT(r.events_executed, 0U);
  EXPECT_GT(r.exec_ticks, 0U);
  const std::string scenario = g.scenario;
  if (scenario == "lossy") {
    EXPECT_GT(r.link.crc_failures, 0U);
  } else if (scenario == "flap") {
    EXPECT_GT(r.health.transitions(), 0U);
  } else if (scenario == "down") {
    EXPECT_GT(r.health.probes_sent, 0U);
  } else if (scenario == "hier") {
    EXPECT_GT(r.bus.trunk_wire_bytes, 0U);
  }
  simd::set_backend(simd::best_backend());  // don't leak the override
}

std::string golden_name(const testing::TestParamInfo<BackendGolden>& info) {
  const Golden& g = info.param.golden;
  std::string name = std::string(simd::backend_name(info.param.backend)) + "_";
  // Bus rows keep their original, scenario-less names.
  if (std::string(g.scenario) != "bus") name += std::string(g.scenario) + "_";
  name += std::string(g.workload) + "_" + g.label;
  for (char& c : name) {
    if (c == '+' || c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadsAllPolicies, PerfIdentityTest,
                         testing::ValuesIn(backend_goldens()), golden_name);

}  // namespace
}  // namespace mgcomp
