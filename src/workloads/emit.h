// Helpers for workload trace generation.
#pragma once

#include <array>
#include <initializer_list>

#include "common/types.h"
#include "gpu/trace.h"
#include "memory/global_memory.h"

namespace mgcomp {

/// Records a line-granularity access to `addr`, merging with the previous
/// op when it touched the same line with the same type — the generator-side
/// equivalent of wavefront coalescing for sequential per-element loops.
inline void emit(WorkgroupTrace& wg, Addr addr, bool is_write) {
  const Addr lb = line_base(addr);
  if (!wg.ops.empty()) {
    const MemOp& last = wg.ops.back();
    if (last.addr == lb && last.is_write == is_write) return;
  }
  wg.ops.push_back(MemOp{lb, is_write});
}

inline void emit_read(WorkgroupTrace& wg, Addr addr) { emit(wg, addr, false); }
inline void emit_write(WorkgroupTrace& wg, Addr addr) { emit(wg, addr, true); }

/// Streams consecutive elements into `mem` from a page-aligned `base` one
/// page per write: set-up loops push values in address order, and the
/// buffer goes out whenever it fills and when the writer is destroyed.
template <typename T>
class PageWriter {
 public:
  PageWriter(GlobalMemory& mem, Addr base) : mem_(&mem), next_(base) {}
  PageWriter(const PageWriter&) = delete;
  PageWriter& operator=(const PageWriter&) = delete;
  ~PageWriter() { flush(); }

  void push(const T& v) {
    buf_[n_++] = v;
    if (n_ == buf_.size()) flush();
  }

  void flush() {
    mem_->write<T>(next_, {buf_.data(), n_});
    next_ += static_cast<Addr>(n_ * sizeof(T));
    n_ = 0;
  }

 private:
  GlobalMemory* mem_;
  Addr next_;
  std::size_t n_{0};
  std::array<T, kPageBytes / sizeof(T)> buf_{};
};

/// Writes a kernel's parameter line (launch metadata: kernel index, grid
/// size, buffer base addresses — the small, pointer-like values the paper
/// notes are highly compressible) and returns its address.
inline Addr write_param_line(GlobalMemory& mem, Addr param_base, std::size_t kernel_index,
                             std::initializer_list<std::uint64_t> args) {
  const Addr addr = param_base + static_cast<Addr>(kernel_index) * kLineBytes;
  Line line{};
  std::size_t off = 0;
  auto put32 = [&](std::uint32_t v) {
    if (off + 4 <= kLineBytes) {
      line[off] = static_cast<std::uint8_t>(v);
      line[off + 1] = static_cast<std::uint8_t>(v >> 8);
      line[off + 2] = static_cast<std::uint8_t>(v >> 16);
      line[off + 3] = static_cast<std::uint8_t>(v >> 24);
      off += 4;
    }
  };
  put32(static_cast<std::uint32_t>(kernel_index));
  for (const std::uint64_t a : args) {
    put32(static_cast<std::uint32_t>(a));
    put32(static_cast<std::uint32_t>(a >> 32));
  }
  mem.write_line(addr, line);
  return addr;
}

}  // namespace mgcomp
