#include "workloads/gradient_descent.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/assert.h"
#include "common/rng.h"
#include "workloads/emit.h"

namespace mgcomp {

void GradientDescentWorkload::setup(GlobalMemory& mem) {
  MGCOMP_CHECK_MSG(p_.n > 0 && p_.n % (kSamplesPerWg * 8) == 0,
                   "GradientDescentWorkload: n must be a positive multiple of 128");
  MGCOMP_CHECK_MSG(p_.d > 0 && p_.d % (kLineBytes / 4) == 0,
                   "GradientDescentWorkload: d must be a positive multiple of 16");
  MGCOMP_CHECK_MSG(p_.iterations > 0, "GradientDescentWorkload: iterations must be >= 1");
  num_wgs_ = p_.n / kSamplesPerWg;

  features_ = mem.alloc(static_cast<std::size_t>(p_.n) * p_.d * 4, "GD.X");
  targets_ = mem.alloc(static_cast<std::size_t>(p_.n) * 4, "GD.y");
  weights_ = mem.alloc(static_cast<std::size_t>(p_.d) * 4, "GD.w");
  partials_ = mem.alloc(static_cast<std::size_t>(num_wgs_) * p_.d * 4, "GD.partials");
  params_ = mem.alloc(kernel_count() * kLineBytes, "GD.params");

  Rng rng(p_.seed);
  // Hidden true weights generate the targets (plus noise), so the descent
  // has something real to converge to.
  std::vector<float> truth(p_.d);
  for (auto& w : truth) w = static_cast<float>(rng.uniform(-1.0, 1.0));

  {
    PageWriter<float> features(mem, features_);
    PageWriter<float> targets(mem, targets_);
    for (std::uint32_t i = 0; i < p_.n; ++i) {
      double y = 0.0;
      // Block-sparse features (16 floats = one line per block): whole
      // blocks are zero with probability zero_fraction, as in one-hot/
      // embedding inputs. Zero *lines* are what give the word-granularity
      // codecs their modest edge on float data (Table V's GD row).
      for (std::uint32_t b = 0; b < p_.d; b += kLineBytes / 4) {
        const bool zero_block = rng.chance(p_.zero_fraction);
        for (std::uint32_t f = b; f < b + kLineBytes / 4; ++f) {
          const float x = zero_block ? 0.0f : static_cast<float>(rng.uniform(-2.0, 2.0));
          features.push(x);
          y += static_cast<double>(truth[f]) * x;
        }
      }
      y += rng.uniform(-0.05, 0.05);
      targets.push(static_cast<float>(y));
    }
  }
  mem.write<float>(weights_, std::vector<float>(p_.d, 0.0f));
}

double GradientDescentWorkload::predict(std::span<const float> weights,
                                        std::span<const float> sample) const {
  double acc = 0.0;
  for (std::uint32_t f = 0; f < p_.d; ++f) {
    acc += static_cast<double>(weights[f]) * static_cast<double>(sample[f]);
  }
  return acc;
}

KernelTrace GradientDescentWorkload::generate_kernel(std::size_t kern, GlobalMemory& mem) {
  const std::size_t iter = kern / 2;
  return (kern % 2 == 0) ? generate_gradient(iter, mem) : generate_update(iter, mem);
}

KernelTrace GradientDescentWorkload::generate_gradient(std::size_t iter, GlobalMemory& mem) {
  KernelTrace trace;
  trace.name = "gd.grad" + std::to_string(iter);
  trace.compute_cycles_per_op = 4;
  trace.param_addr =
      write_param_line(mem, params_, iter * 2, {features_, targets_, weights_, p_.n, p_.d});

  const std::size_t weight_lines = static_cast<std::size_t>(p_.d) * 4 / kLineBytes;
  // Weights are read-only during the gradient kernel (stores go to the
  // partials region), so one read serves every sample.
  std::vector<float> wvec(p_.d);
  mem.read<float>(weights_, wvec);
  std::vector<float> feat(p_.d);
  std::array<float, kSamplesPerWg> target{};
  std::vector<double> grad(p_.d);
  std::vector<float> partial(p_.d);

  trace.workgroups.reserve(num_wgs_);
  for (std::uint32_t w = 0; w < num_wgs_; ++w) {
    WorkgroupTrace wg;
    for (std::size_t l = 0; l < weight_lines; ++l) {
      emit_read(wg, weights_ + l * kLineBytes);
    }

    const std::uint32_t first = w * kSamplesPerWg;
    mem.read<float>(targets_ + static_cast<Addr>(first) * 4, target);
    std::fill(grad.begin(), grad.end(), 0.0);
    for (std::uint32_t s = 0; s < kSamplesPerWg; ++s) {
      const std::uint32_t i = first + s;
      for (std::uint32_t f = 0; f < p_.d; f += kLineBytes / 4) {
        emit_read(wg, sample_addr(i) + static_cast<Addr>(f) * 4);
      }
      emit_read(wg, targets_ + static_cast<Addr>(i) * 4);
      mem.read<float>(sample_addr(i), feat);
      const double err = predict(wvec, feat) - static_cast<double>(target[s]);
      for (std::uint32_t f = 0; f < p_.d; ++f) {
        grad[f] += err * static_cast<double>(feat[f]);
      }
    }
    for (std::uint32_t f = 0; f < p_.d; ++f) {
      partial[f] = static_cast<float>(grad[f] / kSamplesPerWg);
    }
    const Addr part = partials_ + static_cast<Addr>(w) * p_.d * 4;
    mem.write<float>(part, partial);
    for (std::size_t off = 0; off < static_cast<std::size_t>(p_.d) * 4; off += kLineBytes) {
      emit_write(wg, part + off);
    }
    trace.workgroups.push_back(std::move(wg));
  }
  return trace;
}

KernelTrace GradientDescentWorkload::generate_update(std::size_t iter, GlobalMemory& mem) {
  KernelTrace trace;
  trace.name = "gd.update" + std::to_string(iter);
  trace.compute_cycles_per_op = 2;
  trace.param_addr =
      write_param_line(mem, params_, iter * 2 + 1, {partials_, weights_, num_wgs_, p_.d});

  // One workgroup per 16-feature slice of the weight vector: the
  // all-reduce where every GPU reads every other GPU's partials.
  for (std::uint32_t f0 = 0; f0 < p_.d; f0 += kLineBytes / 4) {
    WorkgroupTrace wg;
    for (std::uint32_t w = 0; w < num_wgs_; ++w) {
      emit_read(wg, partials_ + (static_cast<Addr>(w) * p_.d + f0) * 4);
    }
    emit_write(wg, weights_ + static_cast<Addr>(f0) * 4);
    trace.workgroups.push_back(std::move(wg));
  }
  // Functionally, each partial vector is read once; every feature sums
  // the partials in workgroup order.
  std::vector<double> avg(p_.d, 0.0);
  std::vector<float> partial(p_.d);
  for (std::uint32_t w = 0; w < num_wgs_; ++w) {
    mem.read<float>(partials_ + static_cast<Addr>(w) * p_.d * 4, partial);
    for (std::uint32_t f = 0; f < p_.d; ++f) avg[f] += static_cast<double>(partial[f]);
  }
  std::vector<float> wvec(p_.d);
  mem.read<float>(weights_, wvec);
  for (std::uint32_t f = 0; f < p_.d; ++f) {
    wvec[f] = wvec[f] - p_.learning_rate * static_cast<float>(avg[f] / num_wgs_);
  }
  mem.write<float>(weights_, wvec);

  // Record loss for convergence verification. The update above is done,
  // so the weight vector is stable for the whole scan.
  std::vector<float> feat(p_.d);
  double loss = 0.0;
  for (std::uint32_t i = 0; i < p_.n; i += 16) {
    mem.read<float>(sample_addr(i), feat);
    const double err =
        predict(wvec, feat) -
        static_cast<double>(mem.load<float>(targets_ + static_cast<Addr>(i) * 4));
    loss += err * err;
  }
  losses_.push_back(loss / (p_.n / 16));
  return trace;
}

bool GradientDescentWorkload::verify(const GlobalMemory& mem) const {
  (void)mem;
  // The descent must actually descend.
  return losses_.size() == p_.iterations && losses_.back() < 0.5 * losses_.front();
}

}  // namespace mgcomp
