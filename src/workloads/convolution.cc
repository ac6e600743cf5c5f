#include "workloads/convolution.h"

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "workloads/emit.h"

namespace mgcomp {

void ConvolutionWorkload::setup(GlobalMemory& mem) {
  MGCOMP_CHECK_MSG(p_.width > 0 && p_.width % kTile == 0,
                   "ConvolutionWorkload: width must be a positive multiple of 16");
  MGCOMP_CHECK_MSG(p_.height > 0 && p_.height % kTile == 0,
                   "ConvolutionWorkload: height must be a positive multiple of 16");
  src_ = mem.alloc(static_cast<std::size_t>(p_.width) * p_.height * 4, "SC.src");
  padded_ =
      mem.alloc(static_cast<std::size_t>(p_.width + 2) * (p_.height + 2) * 4, "SC.padded");
  dst_ = mem.alloc(static_cast<std::size_t>(p_.width) * p_.height * 4, "SC.dst");
  params_ = mem.alloc(2 * kLineBytes, "SC.params");

  // Smooth linear-light image: gentle planar ramp with small texture
  // noise. Values exceed 2^15 (FPC-hostile) while adjacent pixels stay
  // within a byte of each other (BDI-friendly).
  Rng rng(p_.seed);
  PageWriter<std::int32_t> src(mem, src_);
  for (std::uint32_t r = 0; r < p_.height; ++r) {
    for (std::uint32_t c = 0; c < p_.width; ++c) {
      src.push(65536 + static_cast<std::int32_t>(r) * 3 + static_cast<std::int32_t>(c) * 5 +
               static_cast<std::int32_t>(rng.below(4)));
    }
  }
}

KernelTrace ConvolutionWorkload::generate_kernel(std::size_t k, GlobalMemory& mem) {
  return k == 0 ? generate_pad(mem) : generate_convolve(mem);
}

KernelTrace ConvolutionWorkload::generate_pad(GlobalMemory& mem) {
  KernelTrace trace;
  trace.name = "sc.pad";
  trace.compute_cycles_per_op = 0;
  trace.param_addr = write_param_line(mem, params_, 0, {src_, padded_, p_.width, p_.height});

  const std::uint32_t pw = p_.width + 2;
  const std::uint32_t ph = p_.height + 2;

  // Functional pass first: zero frame rows, then each interior row whole
  // (zero, the source row, zero) with one read and one write.
  std::vector<std::int32_t> row(pw, 0);
  mem.write<std::int32_t>(padded_at(0, 0), row);
  mem.write<std::int32_t>(padded_at(ph - 1, 0), row);
  for (std::uint32_t r = 1; r < ph - 1; ++r) {
    mem.read<std::int32_t>(src_at(r - 1, 0), std::span(row).subspan(1, p_.width));
    mem.write<std::int32_t>(padded_at(r, 0), row);
  }

  // Margin workgroups FIRST: the early inter-GPU payloads are the
  // zero/boundary lines (the paper's "margin exchange" phase).
  {
    WorkgroupTrace top;
    for (std::uint32_t c = 0; c < pw; c += kLineBytes / 4) emit_write(top, padded_at(0, c));
    trace.workgroups.push_back(std::move(top));
    WorkgroupTrace bottom;
    for (std::uint32_t c = 0; c < pw; c += kLineBytes / 4) {
      emit_write(bottom, padded_at(ph - 1, c));
    }
    trace.workgroups.push_back(std::move(bottom));
  }
  for (std::uint32_t r0 = 1; r0 < ph - 1; r0 += 64) {
    WorkgroupTrace left, right;
    for (std::uint32_t r = r0; r < std::min(r0 + 64, ph - 1); ++r) {
      // Each side cell sits in a line that also holds row pixels — the
      // mixed zero/pixel payloads where dictionary codecs shine.
      emit_read(left, src_at(r - 1, 0));
      emit_write(left, padded_at(r, 0));
      emit_read(right, src_at(r - 1, p_.width - 1));
      emit_write(right, padded_at(r, pw - 1));
    }
    trace.workgroups.push_back(std::move(left));
    trace.workgroups.push_back(std::move(right));
  }

  // Interior copy, one workgroup per source row.
  for (std::uint32_t r = 0; r < p_.height; ++r) {
    WorkgroupTrace wg;
    for (std::uint32_t c = 0; c < p_.width; c += kLineBytes / 4) {
      emit_read(wg, src_at(r, c));
    }
    for (std::uint32_t c = 0; c <= p_.width; c += kLineBytes / 4) {
      emit_write(wg, padded_at(r + 1, std::min(c + 1, p_.width + 1)));
    }
    trace.workgroups.push_back(std::move(wg));
  }
  return trace;
}

KernelTrace ConvolutionWorkload::generate_convolve(GlobalMemory& mem) {
  KernelTrace trace;
  trace.name = "sc.convolve";
  trace.compute_cycles_per_op = 4;  // 9 MACs per output pixel
  trace.param_addr = write_param_line(mem, params_, 1, {padded_, dst_, p_.width, p_.height});

  // Each tile reads its (kTile+2)^2 padded window one row per call and
  // writes its kTile output rows one row per call.
  std::array<std::array<std::int32_t, kTile + 2>, kTile + 2> in{};
  std::array<std::int32_t, kTile> out{};
  for (std::uint32_t tr = 0; tr < p_.height; tr += kTile) {
    for (std::uint32_t tc = 0; tc < p_.width; tc += kTile) {
      WorkgroupTrace wg;
      // Input window: kTile+2 padded rows, each spanning the tile plus halo.
      for (std::uint32_t r = tr; r < tr + kTile + 2; ++r) {
        for (std::uint32_t c = tc; c <= tc + kTile + 2; c += kLineBytes / 4) {
          emit_read(wg, padded_at(r, std::min(c, tc + kTile + 1)));
        }
      }
      for (std::uint32_t r = 0; r < kTile + 2; ++r) {
        mem.read<std::int32_t>(padded_at(tr + r, tc), in[r]);
      }
      // Functional convolution + output lines.
      for (std::uint32_t r = 0; r < kTile; ++r) {
        for (std::uint32_t c = 0; c < kTile; ++c) {
          std::int64_t acc = 0;
          for (std::uint32_t dr = 0; dr < 3; ++dr) {
            for (std::uint32_t dc = 0; dc < 3; ++dc) {
              acc += static_cast<std::int64_t>(kFilter[dr][dc]) * in[r + dr][c + dc];
            }
          }
          out[c] = static_cast<std::int32_t>(acc >> 4);
        }
        mem.write<std::int32_t>(dst_at(tr + r, tc), out);
        emit_write(wg, dst_at(tr + r, tc));
      }
      trace.workgroups.push_back(std::move(wg));
    }
  }
  return trace;
}

bool ConvolutionWorkload::verify(const GlobalMemory& mem) const {
  Rng rng(p_.seed ^ 0x5cULL);
  std::array<std::int32_t, 3> in{};
  for (int s = 0; s < 2048; ++s) {
    const auto r = static_cast<std::uint32_t>(rng.below(p_.height));
    const auto c = static_cast<std::uint32_t>(rng.below(p_.width));
    std::int64_t acc = 0;
    for (std::uint32_t dr = 0; dr < 3; ++dr) {
      mem.read<std::int32_t>(padded_at(r + dr, c), in);
      for (std::uint32_t dc = 0; dc < 3; ++dc) {
        acc += static_cast<std::int64_t>(kFilter[dr][dc]) * in[dc];
      }
    }
    if (mem.load<std::int32_t>(dst_at(r, c)) != static_cast<std::int32_t>(acc >> 4)) {
      return false;
    }
  }
  return true;
}

}  // namespace mgcomp
