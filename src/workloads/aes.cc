#include "workloads/aes.h"

#include <algorithm>
#include <array>
#include <span>
#include <string>

#include "common/assert.h"
#include "common/rng.h"
#include "workloads/emit.h"

namespace mgcomp {

void AesWorkload::setup(GlobalMemory& mem) {
  MGCOMP_CHECK_MSG(p_.bytes_per_pass > 0 && p_.bytes_per_pass % kChunkBytes == 0,
                   "AesWorkload: bytes_per_pass must be a positive multiple of 1024");
  MGCOMP_CHECK_MSG(p_.passes > 0, "AesWorkload: passes must be >= 1");
  const std::size_t total = p_.bytes_per_pass * p_.passes;
  plaintext_ = mem.alloc(total, "AES.plaintext");
  macs_ = mem.alloc(total / kChunkBytes * aes::kBlockBytes, "AES.macs");
  params_ = mem.alloc(static_cast<std::size_t>(p_.passes) * kLineBytes, "AES.params");

  Rng rng(p_.seed);
  for (std::size_t i = 0; i < aes::kKeyBytes; ++i) {
    key_[i] = static_cast<std::uint8_t>(rng.next());
  }
  ks_ = aes::expand_key(key_);

  // Random plaintext, written a page at a time.
  std::array<std::uint8_t, kPageBytes> page{};
  for (std::size_t off = 0; off < total; off += page.size()) {
    const std::span<std::uint8_t> bytes(page.data(), std::min(page.size(), total - off));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    mem.write(plaintext_ + off, bytes);
  }
}

aes::Block AesWorkload::compute_mac(const GlobalMemory& mem, Addr chunk) const {
  std::array<std::uint8_t, kChunkBytes> data{};
  mem.read(chunk, data);
  aes::Block mac{};  // zero IV
  for (std::size_t off = 0; off < kChunkBytes; off += aes::kBlockBytes) {
    for (std::size_t i = 0; i < aes::kBlockBytes; ++i) mac[i] ^= data[off + i];
    aes::encrypt_block(mac, ks_);
  }
  return mac;
}

KernelTrace AesWorkload::generate_kernel(std::size_t k, GlobalMemory& mem) {
  const Addr pass_base = plaintext_ + k * p_.bytes_per_pass;
  const std::size_t chunks = p_.bytes_per_pass / kChunkBytes;
  const std::size_t mac_base_idx = k * chunks;

  KernelTrace trace;
  trace.name = "aes.pass" + std::to_string(k);
  // Four chained AES-256 encryptions per line (~50 ALU ops per round x 14
  // rounds): AES is compute-heavy, and the CBC chain serializes the reads,
  // so per-access latency is exposed rather than hidden by the window.
  trace.compute_cycles_per_op = 200;
  trace.max_outstanding = 1;
  trace.param_addr = write_param_line(mem, params_, k, {pass_base, macs_, chunks});

  trace.workgroups.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    WorkgroupTrace wg;
    const Addr chunk = pass_base + c * kChunkBytes;
    for (std::size_t off = 0; off < kChunkBytes; off += kLineBytes) {
      emit_read(wg, chunk + off);
    }
    const aes::Block mac = compute_mac(mem, chunk);
    const Addr mac_addr = macs_ + (mac_base_idx + c) * aes::kBlockBytes;
    mem.write(mac_addr, mac);
    emit_write(wg, mac_addr);
    trace.workgroups.push_back(std::move(wg));
  }
  return trace;
}

bool AesWorkload::verify(const GlobalMemory& mem) const {
  Rng rng(p_.seed ^ 0xae5ULL);
  const std::size_t total_chunks = p_.bytes_per_pass * p_.passes / kChunkBytes;
  for (int s = 0; s < 64; ++s) {
    const std::size_t c = rng.below(total_chunks);
    const aes::Block expect = compute_mac(mem, plaintext_ + c * kChunkBytes);
    aes::Block got;
    mem.read(macs_ + c * aes::kBlockBytes, got);
    if (got != expect) return false;
  }
  return true;
}

}  // namespace mgcomp
