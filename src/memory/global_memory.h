// Functional backing store for the unified multi-GPU address space.
//
// The simulator separates *function* from *timing*: every byte of every
// buffer lives here (sparse 4 KB pages, allocated on first touch), while
// the cache/DRAM/fabric models only decide how long accesses take. Keeping
// real bytes is essential — compression ratios are measured on the actual
// payloads moved between GPUs.
//
// read/write move a span of any trivially copyable element type (bytes by
// default) with one page-map lookup per page the span touches, so workload
// generators move a whole workgroup window per call and compute on local
// arrays; load/store are the one-element case.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace mgcomp {

class GlobalMemory {
 public:
  /// Allocates `bytes` of page-aligned address space and returns its base.
  /// Successive allocations are laid out contiguously (so buffers stripe
  /// across GPUs exactly as the interleaved page map dictates).
  Addr alloc(std::size_t bytes, std::string label = {}) {
    const Addr base = next_;
    const std::size_t pages = (bytes + kPageBytes - 1) / kPageBytes;
    next_ += static_cast<Addr>(pages) * kPageBytes;
    if (!label.empty()) regions_.push_back({label, base, bytes});
    return base;
  }

  /// Reads `out.size()` consecutive T at `addr`. Untouched pages read as
  /// zero and stay unmaterialized. T is named explicitly for non-byte
  /// spans: `mem.read<float>(addr, row)`.
  template <typename T = std::uint8_t>
  void read(Addr addr, std::span<std::type_identity_t<T>> out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto* dst = reinterpret_cast<std::uint8_t*>(out.data());
    const std::size_t bytes = out.size_bytes();
    std::size_t done = 0;
    while (done < bytes) {
      const Addr a = addr + done;
      const std::size_t off = static_cast<std::size_t>(a % kPageBytes);
      const std::size_t n = std::min(bytes - done, kPageBytes - off);
      const auto it = pages_.find(page_index(a));
      if (it == pages_.end()) {
        std::memset(dst + done, 0, n);
      } else {
        std::memcpy(dst + done, it->second->data() + off, n);
      }
      done += n;
    }
  }

  /// Writes `in.size()` consecutive T at `addr`, materializing exactly the
  /// pages the span touches.
  template <typename T = std::uint8_t>
  void write(Addr addr, std::span<const std::type_identity_t<T>> in) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* src = reinterpret_cast<const std::uint8_t*>(in.data());
    const std::size_t bytes = in.size_bytes();
    std::size_t done = 0;
    while (done < bytes) {
      const Addr a = addr + done;
      const std::size_t off = static_cast<std::size_t>(a % kPageBytes);
      const std::size_t n = std::min(bytes - done, kPageBytes - off);
      std::memcpy(page(page_index(a)).data() + off, src + done, n);
      done += n;
    }
  }

  /// Reads the 64-byte line containing `addr`.
  [[nodiscard]] Line read_line(Addr addr) const {
    Line l;
    read(line_base(addr), l);
    return l;
  }

  /// Writes a full line at the line containing `addr`.
  void write_line(Addr addr, LineView data) { write(line_base(addr), data); }

  /// One-element read and write, for scattered accesses (spot checks,
  /// strided scans); contiguous ranges go through read/write.
  template <typename T>
  [[nodiscard]] T load(Addr addr) const {
    T v{};
    read<T>(addr, {&v, 1});
    return v;
  }

  template <typename T>
  void store(Addr addr, const T& v) {
    write<T>(addr, {&v, 1});
  }

  /// Number of materialized pages (untouched pages read as zero).
  [[nodiscard]] std::size_t resident_pages() const noexcept { return pages_.size(); }

  /// Total address space handed out so far.
  [[nodiscard]] Addr allocated_bytes() const noexcept { return next_; }

  struct Region {
    std::string label;
    Addr base;
    std::size_t bytes;
  };
  [[nodiscard]] const std::vector<Region>& regions() const noexcept { return regions_; }

 private:
  using Page = std::array<std::uint8_t, kPageBytes>;

  Page& page(std::uint64_t idx) {
    auto& p = pages_[idx];
    if (p == nullptr) {
      p = std::make_unique<Page>();
      p->fill(0);
    }
    return *p;
  }

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  std::vector<Region> regions_;
  Addr next_{kPageBytes};  // keep address 0 unmapped to catch null derefs
};

}  // namespace mgcomp
