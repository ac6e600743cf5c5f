// Shared helpers for the experiment harnesses (one binary per paper
// table/figure). Each binary accepts an optional scale factor:
//
//   ./bench_fig5 [scale]      # default 1.0; smaller = faster, same shapes
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "workloads/all_workloads.h"

namespace mgcomp::bench {

/// The harness binaries take positional arguments only, so any `--flag` is
/// a typo'd option. Call first thing in main: prints the offending flag
/// and exits nonzero instead of silently running the default experiment —
/// a CI step invoking `bench_x --scale 0.1` must fail, not pass vacuously.
/// `max_positional` additionally bounds the positional count (-1 = any).
inline void reject_unknown_flags(int argc, char** argv, int max_positional = -1) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-' && argv[i][1] == '-' && argv[i][2] != '\0') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (max_positional >= 0 && argc - 1 > max_positional) {
    std::fprintf(stderr, "too many arguments (expected at most %d)\n", max_positional);
    std::exit(2);
  }
}

/// The scale is the first positional argument, `fallback` when absent. It
/// must parse whole as a finite number > 0; anything else exits 2 naming
/// the value instead of running some other scale.
inline double parse_scale(int argc, char** argv, double fallback = 1.0) {
  if (argc <= 1) return fallback;
  const char* v = argv[1];
  const char* end = v + std::strlen(v);
  double s = 0.0;
  const auto [ptr, ec] = std::from_chars(v, end, s);
  if (ec != std::errc() || ptr != end || !std::isfinite(s) || !(s > 0.0)) {
    std::fprintf(stderr, "bad scale: %s\n", v);
    std::exit(2);
  }
  return s;
}

/// Runs `abbrev` under `policy` on the paper's shared bus;
/// characterization/tracing per flags.
inline RunResult run(std::string_view abbrev, double scale, PolicyFactory policy,
                     bool characterize = false, std::size_t trace_samples = 0) {
  SystemConfig cfg;
  cfg.policy = std::move(policy);
  cfg.characterize = characterize;
  cfg.trace_samples = trace_samples;
  cfg.fabric = FabricKind::kBus;
  auto wl = make_workload(abbrev, scale);
  RunResult r = run_workload(std::move(cfg), *wl);
  return r;
}

/// A (label, policy factory) pair for sweep tables.
struct PolicyCase {
  std::string label;
  PolicyFactory factory;
};

inline std::vector<PolicyCase> static_policies() {
  std::vector<PolicyCase> v;
  v.push_back({"None", make_no_compression_policy()});
  v.push_back({"FPC", make_static_policy(CodecId::kFpc)});
  v.push_back({"BDI", make_static_policy(CodecId::kBdi)});
  v.push_back({"C-Pack+Z", make_static_policy(CodecId::kCpackZ)});
  return v;
}

inline std::vector<PolicyCase> adaptive_policies() {
  std::vector<PolicyCase> v;
  v.push_back({"Adaptive l=0", make_adaptive_policy(AdaptiveParams{.lambda = 0.0})});
  v.push_back({"Adaptive l=6", make_adaptive_policy(AdaptiveParams{.lambda = 6.0})});
  v.push_back({"Adaptive l=32", make_adaptive_policy(AdaptiveParams{.lambda = 32.0})});
  return v;
}

/// Geometric mean (the conventional mean for normalized ratios).
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace mgcomp::bench
