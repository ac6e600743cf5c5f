// FIR — Finite Impulse Response filter (ported conceptually from
// Hetero-Mark).
//
// y[i] = (sum_j c[j] * x[i+j]) >> 8 over a fixed-point int32 audio signal,
// processed in sequential blocks (one kernel launch per block, streaming
// style). The signal has two regimes, which produces the two compression
// phases of Fig. 1(c)/(d):
//   * a quiet intro block — mostly exact zeros plus small dither, where the
//     word-granularity codecs (FPC, C-Pack+Z) shine;
//   * the loud body — a slowly varying large-amplitude waveform whose
//     values exceed the 16-bit range (defeating FPC's narrow patterns)
//     but sit in a low dynamic range within each line (BDI's home turf).
#pragma once

#include <vector>

#include "core/workload.h"

namespace mgcomp {

class FirWorkload final : public Workload {
 public:
  struct Params {
    std::uint32_t num_samples{512 * 1024};  ///< total signal length
    std::uint32_t num_blocks{8};            ///< kernel launches
    std::uint32_t num_taps{16};
    std::uint32_t quiet_samples{16384};     ///< leading quiet (near-silent) samples
    std::int32_t amplitude{200000};         ///< loud-body peak (> 2^15)
    std::uint32_t period{262144};           ///< loud-body wavelength, samples
    std::uint64_t seed{0x5eed'0002};
  };

  FirWorkload() : FirWorkload(Params()) {}
  explicit FirWorkload(Params p) : p_(p) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "Finite Impulse Response Filter";
  }
  [[nodiscard]] std::string_view abbrev() const noexcept override { return "FIR"; }
  void setup(GlobalMemory& mem) override;
  [[nodiscard]] std::size_t kernel_count() const override { return p_.num_blocks; }
  KernelTrace generate_kernel(std::size_t k, GlobalMemory& mem) override;
  [[nodiscard]] bool verify(const GlobalMemory& mem) const override;

 private:
  Params p_;
  Addr input_{0};
  Addr coeffs_{0};
  Addr output_{0};
  Addr params_{0};
};

}  // namespace mgcomp
