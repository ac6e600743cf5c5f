// GD — mini-batch Gradient Descent for linear regression (developed from
// scratch by the paper's authors; same here).
//
// Each iteration: (a) a gradient kernel where every workgroup streams its
// mini-batch of float32 samples against the cached weight vector and
// writes a partial gradient; (b) a reduce/update kernel that averages the
// partials across all GPUs (the paper's "GPUs communicate in order to
// average out the results") and applies the step. Floating-point feature
// and gradient payloads are only mildly compressible — sparse zeros help
// FPC a little, clustered exponent bytes help BDI/C-Pack a little — giving
// the narrow 1.2-1.4x band of Table V.
#pragma once

#include <span>
#include <vector>

#include "core/workload.h"

namespace mgcomp {

class GradientDescentWorkload final : public Workload {
 public:
  struct Params {
    std::uint32_t n{4096};        ///< samples
    std::uint32_t d{128};         ///< features (multiple of 16)
    std::uint32_t iterations{8};
    double zero_fraction{0.30};   ///< zero feature blocks (lines)
    float learning_rate{0.05f};
    std::uint64_t seed{0x5eed'0006};
  };

  GradientDescentWorkload() : GradientDescentWorkload(Params()) {}
  explicit GradientDescentWorkload(Params p) : p_(p) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "Gradient Descent"; }
  [[nodiscard]] std::string_view abbrev() const noexcept override { return "GD"; }
  void setup(GlobalMemory& mem) override;
  [[nodiscard]] std::size_t kernel_count() const override { return p_.iterations * 2; }
  KernelTrace generate_kernel(std::size_t kern, GlobalMemory& mem) override;
  [[nodiscard]] bool verify(const GlobalMemory& mem) const override;

  /// Mean-squared-error loss after each completed iteration.
  [[nodiscard]] const std::vector<double>& losses() const noexcept { return losses_; }

 private:
  static constexpr std::uint32_t kSamplesPerWg = 16;

  [[nodiscard]] Addr sample_addr(std::uint32_t i) const noexcept {
    return features_ + static_cast<Addr>(i) * p_.d * 4;
  }
  // Dot product over local copies: the kernels read the weight vector once
  // and each sample's feature row with one GlobalMemory::read, and write
  // each partial vector with one write, so the O(n*d) loops never touch
  // the page map.
  [[nodiscard]] double predict(std::span<const float> weights,
                               std::span<const float> sample) const;

  KernelTrace generate_gradient(std::size_t iter, GlobalMemory& mem);
  KernelTrace generate_update(std::size_t iter, GlobalMemory& mem);

  Params p_;
  Addr features_{0};
  Addr targets_{0};
  Addr weights_{0};
  Addr partials_{0};  ///< per-WG d-float partial gradients
  Addr params_{0};
  std::uint32_t num_wgs_{0};
  std::vector<double> losses_;
};

}  // namespace mgcomp
