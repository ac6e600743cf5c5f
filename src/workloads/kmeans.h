// KM — KMeans clustering (ported conceptually from Hetero-Mark).
//
// Lloyd's algorithm over n points of d int32 features, k clusters,
// fixed iteration count. Each iteration launches two kernels:
//   * assign+reduce: every workgroup streams its points (one line per
//     point when d = 16), computes nearest centroids, writes labels and
//     its partial per-cluster sums;
//   * update: reduces the partial sums into new integer-mean centroids.
// Point re-reads every iteration make reads dwarf writes (the paper's
// 20:1 profile). Features are sparse quantized codes: mostly zero words
// plus small values, with rare full-width "template" codes — the mix that
// makes the word-granularity codecs (C-Pack+Z, FPC) excel while BDI, which
// needs a whole line to share one delta range, lags far behind (Table V).
#pragma once

#include <span>
#include <vector>

#include "core/workload.h"

namespace mgcomp {

class KMeansWorkload final : public Workload {
 public:
  struct Params {
    std::uint32_t n{32768};       ///< points
    std::uint32_t d{16};          ///< features per point (16 ints = 1 line)
    std::uint32_t k{16};          ///< clusters
    std::uint32_t iterations{6};
    double zero_fraction{0.90};
    double template_fraction{0.005};  ///< full-width reused code words
    double wide_fraction{0.002};      ///< unique full-width words
    std::uint64_t seed{0x5eed'0005};
  };

  KMeansWorkload() : KMeansWorkload(Params()) {}
  explicit KMeansWorkload(Params p) : p_(p) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "KMeans"; }
  [[nodiscard]] std::string_view abbrev() const noexcept override { return "KM"; }
  void setup(GlobalMemory& mem) override;
  [[nodiscard]] std::size_t kernel_count() const override { return p_.iterations * 2; }
  KernelTrace generate_kernel(std::size_t kern, GlobalMemory& mem) override;
  [[nodiscard]] bool verify(const GlobalMemory& mem) const override;

  /// Index of the centroid nearest to `features` in squared Euclidean
  /// distance; the first one wins a tie. `centroids` is feature-major
  /// (centroid c's feature f at [f * k + c]) with k = dist.size(), and
  /// `dist` is a work buffer. The inner loop runs over centroids, while each
  /// centroid still sums its features in ascending order, so every
  /// distance is the double a per-centroid loop computes.
  [[nodiscard]] static std::uint32_t nearest_centroid(std::span<const std::int32_t> features,
                                                      std::span<const double> centroids,
                                                      std::span<double> dist);

 private:
  static constexpr std::uint32_t kPointsPerWg = 128;

  [[nodiscard]] Addr point_addr(std::uint32_t i) const noexcept {
    return points_ + static_cast<Addr>(i) * p_.d * 4;
  }
  // The assign kernel reads the centroids once per launch, each point line
  // with one GlobalMemory::read, and writes each workgroup's label run and
  // partial-sum block with one write each; the update kernel reads each
  // partial block once. The O(n*k*d) distance loop never touches the page
  // map.

  KernelTrace generate_assign(std::size_t iter, GlobalMemory& mem);
  KernelTrace generate_update(std::size_t iter, GlobalMemory& mem);

  Params p_;
  Addr points_{0};
  Addr centroids_{0};
  Addr labels_{0};
  Addr partial_sums_{0};    ///< per-WG [k][d] sums + [k] counts
  Addr params_{0};
  std::uint32_t num_wgs_{0};
};

}  // namespace mgcomp
