#include "workloads/all_workloads.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "workloads/aes.h"
#include "workloads/bitonic_sort.h"
#include "workloads/convolution.h"
#include "workloads/fir.h"
#include "workloads/gradient_descent.h"
#include "workloads/kmeans.h"
#include "workloads/matrix_transpose.h"

namespace mgcomp {
namespace {

// `v * scale` truncated. It must stay below 2^31, so that it converts
// exactly and the doubling in scaled_pow2 cannot wrap.
std::uint32_t scaled_size(double v, double scale) {
  const double size = v * scale;
  MGCOMP_CHECK_MSG(size < 2147483648.0, "make_workload: every scaled size must be < 2^31");
  return static_cast<std::uint32_t>(size);
}

// Rounds `v * scale` down to a multiple of `quantum`, staying >= quantum.
std::uint32_t scaled(std::uint32_t v, double scale, std::uint32_t quantum) {
  const std::uint32_t raw = scaled_size(v, scale);
  return std::max(quantum, raw / quantum * quantum);
}

// Largest power of two <= v * scale, at least `floor_pow2`.
std::uint32_t scaled_pow2(std::uint32_t v, double scale, std::uint32_t floor_pow2) {
  const std::uint32_t target = scaled_size(v, scale);
  std::uint32_t p = floor_pow2;
  while (p * 2 <= target) p *= 2;
  return p;
}

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view abbrev, double scale) {
  MGCOMP_CHECK_MSG(std::isfinite(scale) && scale > 0.0,
                   "make_workload: scale must be finite and > 0");
  if (abbrev == "AES") {
    AesWorkload::Params p;
    p.bytes_per_pass = std::max<std::size_t>(
        64 * 1024, scaled_size(static_cast<double>(p.bytes_per_pass), scale) / 1024 * 1024);
    return std::make_unique<AesWorkload>(p);
  }
  if (abbrev == "BS") {
    BitonicSortWorkload::Params p;
    p.n = scaled_pow2(p.n, scale, 16384);
    return std::make_unique<BitonicSortWorkload>(p);
  }
  if (abbrev == "FIR") {
    FirWorkload::Params p;
    p.num_samples = scaled(p.num_samples, scale, p.num_blocks * 256 * 16);
    return std::make_unique<FirWorkload>(p);
  }
  if (abbrev == "GD") {
    GradientDescentWorkload::Params p;
    p.n = scaled(p.n, scale, 64 * 8);
    return std::make_unique<GradientDescentWorkload>(p);
  }
  if (abbrev == "KM") {
    KMeansWorkload::Params p;
    p.n = scaled(p.n, scale, 128 * 8);
    return std::make_unique<KMeansWorkload>(p);
  }
  if (abbrev == "MT") {
    MatrixTransposeWorkload::Params p;
    p.n = scaled(p.n, std::sqrt(scale), 16 * 4);
    return std::make_unique<MatrixTransposeWorkload>(p);
  }
  if (abbrev == "SC") {
    ConvolutionWorkload::Params p;
    p.width = scaled(p.width, std::sqrt(scale), 16 * 4);
    p.height = scaled(p.height, std::sqrt(scale), 16 * 4);
    return std::make_unique<ConvolutionWorkload>(p);
  }
  return nullptr;
}

const std::vector<std::string_view>& workload_abbrevs() {
  static const std::vector<std::string_view> kAbbrevs = {"AES", "BS", "FIR", "GD",
                                                         "KM",  "MT", "SC"};
  return kAbbrevs;
}

std::vector<std::unique_ptr<Workload>> make_all_workloads(double scale) {
  std::vector<std::unique_ptr<Workload>> out;
  for (const auto abbrev : workload_abbrevs()) out.push_back(make_workload(abbrev, scale));
  return out;
}

}  // namespace mgcomp
