// Workload tests: functional correctness of each benchmark's computation,
// trace invariants, data-distribution properties, and determinism.
// These run the generators directly against GlobalMemory (no timing model),
// so they are fast even at full problem sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "analysis/fingerprint.h"
#include "common/entropy.h"
#include "common/rng.h"
#include "compression/codec_set.h"
#include "workloads/aes.h"
#include "workloads/aes_core.h"
#include "workloads/all_workloads.h"
#include "workloads/bitonic_sort.h"
#include "workloads/convolution.h"
#include "workloads/fir.h"
#include "workloads/gradient_descent.h"
#include "workloads/kmeans.h"
#include "workloads/matrix_transpose.h"

namespace mgcomp {
namespace {

/// Runs a workload functionally: generates every kernel (which applies its
/// writes to memory) without simulating timing.
void run_functionally(Workload& wl, GlobalMemory& mem) {
  wl.setup(mem);
  for (std::size_t k = 0; k < wl.kernel_count(); ++k) {
    (void)wl.generate_kernel(k, mem);
  }
}

// ---------------------------------------------------------------------------
// AES core: FIPS-197 known-answer tests.
// ---------------------------------------------------------------------------

// Byte-wise FIPS-197 rounds (SubBytes, ShiftRows, MixColumns, AddRoundKey
// on a column-major byte state): the reference the T-table cipher must
// match block for block.
std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

void reference_encrypt_block(aes::Block& s, const aes::KeySchedule& ks) {
  const auto add_round_key = [&](std::size_t round) {
    for (std::size_t c = 0; c < 4; ++c) {
      const std::uint32_t w = ks[round * 4 + c];
      for (std::size_t r = 0; r < 4; ++r) {
        s[c * 4 + r] ^= static_cast<std::uint8_t>(w >> (8 * r));
      }
    }
  };
  const auto sub_bytes_shift_rows = [&] {
    const aes::Block t = s;
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) s[c * 4 + r] = aes::sbox(t[((c + r) % 4) * 4 + r]);
    }
  };
  const auto mix_columns = [&] {
    for (std::size_t c = 0; c < 4; ++c) {
      std::uint8_t* col = &s[c * 4];
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const auto x = static_cast<std::uint8_t>(a0 ^ a1 ^ a2 ^ a3);
      col[0] = static_cast<std::uint8_t>(a0 ^ x ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
      col[1] = static_cast<std::uint8_t>(a1 ^ x ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
      col[2] = static_cast<std::uint8_t>(a2 ^ x ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
      col[3] = static_cast<std::uint8_t>(a3 ^ x ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
    }
  };
  add_round_key(0);
  for (std::size_t round = 1; round < aes::kNumRounds; ++round) {
    sub_bytes_shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes_shift_rows();
  add_round_key(aes::kNumRounds);
}

TEST(AesCore, Fips197Appendix) {
  // FIPS-197 C.3: AES-256, key 000102...1f, plaintext 00112233...ff.
  aes::Key key;
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  aes::Block block;
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::uint8_t>(i * 0x11);
  }
  const aes::KeySchedule ks = aes::expand_key(key);
  aes::Block reference = block;
  aes::encrypt_block(block, ks);
  reference_encrypt_block(reference, ks);
  const aes::Block expected = {0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf,
                               0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49, 0x60, 0x89};
  EXPECT_EQ(block, expected);
  EXPECT_EQ(reference, expected);
}

TEST(AesCore, SboxSpotChecks) {
  EXPECT_EQ(aes::sbox(0x00), 0x63);
  EXPECT_EQ(aes::sbox(0x53), 0xed);
  EXPECT_EQ(aes::sbox(0xff), 0x16);
}

TEST(AesCore, KeyScheduleFirstAndLastWords) {
  aes::Key key{};
  const aes::KeySchedule ks = aes::expand_key(key);
  EXPECT_EQ(ks[0], 0u);  // first words are the key itself
  EXPECT_EQ(ks[7], 0u);
  EXPECT_NE(ks[8], 0u);  // expansion kicks in
}

TEST(AesCore, EncryptionIsDeterministicAndKeyed) {
  aes::Key k1{}, k2{};
  k2[0] = 1;
  aes::Block b1{}, b2{}, b3{};
  aes::encrypt_block(b1, aes::expand_key(k1));
  aes::encrypt_block(b3, aes::expand_key(k1));
  aes::encrypt_block(b2, aes::expand_key(k2));
  EXPECT_EQ(b1, b3);
  EXPECT_NE(b1, b2);
}

TEST(AesCore, TableRoundsMatchByteWiseReference) {
  Rng rng(0xae5'7ab1e);
  for (int trial = 0; trial < 10000; ++trial) {
    aes::Key key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    aes::Block block{};
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
    const aes::KeySchedule ks = aes::expand_key(key);
    aes::Block want = block;
    reference_encrypt_block(want, ks);
    aes::encrypt_block(block, ks);
    ASSERT_EQ(block, want) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// KMeans distance loop: the centroid-inner loop against the per-centroid
// loop it replaced.
// ---------------------------------------------------------------------------

/// Per-centroid nearest-centroid search over a centroid-major block.
std::uint32_t reference_nearest(std::span<const std::int32_t> features,
                                std::span<const std::int32_t> centroids, std::uint32_t k) {
  const std::size_t d = features.size();
  std::uint32_t best = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (std::uint32_t c = 0; c < k; ++c) {
    double dist = 0.0;
    for (std::size_t f = 0; f < d; ++f) {
      const double diff = static_cast<double>(features[f]) -
                          static_cast<double>(centroids[c * d + f]);
      dist += diff * diff;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

TEST(KMeansDistance, CentroidInnerLoopMatchesPerCentroidLoop) {
  Rng rng(0x6b6d);
  std::size_t ties = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const auto k = static_cast<std::uint32_t>(1 + rng.below(24));
    const auto d = static_cast<std::size_t>(1 + rng.below(40));
    // Full-width int32 values, small codes, or a few distinct values
    // (so exact distance ties between centroids are common).
    const int mode = static_cast<int>(trial % 3);
    const auto draw = [&]() -> std::int32_t {
      if (mode == 0) return static_cast<std::int32_t>(rng.next());
      if (mode == 1) return static_cast<std::int32_t>(rng.below(10));
      return rng.chance(0.5) ? std::numeric_limits<std::int32_t>::min()
                             : std::numeric_limits<std::int32_t>::max();
    };
    std::vector<std::int32_t> cents(k * d);
    for (auto& v : cents) v = draw();
    if (k > 1 && rng.chance(0.3)) {  // duplicate centroid: a guaranteed tie
      const std::size_t c = 1 + rng.below(k - 1);
      std::copy_n(cents.begin(), d, cents.begin() + static_cast<std::ptrdiff_t>(c * d));
    }
    std::vector<std::int32_t> point(d);
    for (auto& v : point) v = draw();

    std::vector<double> by_feature(k * d);
    for (std::uint32_t c = 0; c < k; ++c) {
      for (std::size_t f = 0; f < d; ++f) {
        by_feature[f * k + c] = static_cast<double>(cents[c * d + f]);
      }
    }
    std::vector<double> dist(k);
    const std::uint32_t got = KMeansWorkload::nearest_centroid(point, by_feature, dist);
    ASSERT_EQ(got, reference_nearest(point, cents, k)) << "trial " << trial;
    ties += static_cast<std::size_t>(
        std::count(dist.begin(), dist.end(), dist[got]) > 1);
  }
  EXPECT_GT(ties, 100u);  // the tie-break rule was actually exercised
}

// ---------------------------------------------------------------------------
// Per-workload functional verification.
// ---------------------------------------------------------------------------

TEST(WorkloadFunc, BitonicSortSorts) {
  GlobalMemory mem;
  BitonicSortWorkload wl(BitonicSortWorkload::Params{.n = 4096});
  run_functionally(wl, mem);
  EXPECT_TRUE(wl.verify(mem));
}

TEST(WorkloadFunc, BitonicSortPreservesMultiset) {
  GlobalMemory mem;
  BitonicSortWorkload::Params p{.n = 2048};
  BitonicSortWorkload wl(p);
  wl.setup(mem);
  std::multiset<std::uint32_t> before;
  const Addr keys = mem.regions()[0].base;
  for (std::uint32_t i = 0; i < p.n; ++i) {
    before.insert(mem.load<std::uint32_t>(keys + i * 4ULL));
  }
  for (std::size_t k = 0; k < wl.kernel_count(); ++k) (void)wl.generate_kernel(k, mem);
  std::multiset<std::uint32_t> after;
  for (std::uint32_t i = 0; i < p.n; ++i) {
    after.insert(mem.load<std::uint32_t>(keys + i * 4ULL));
  }
  EXPECT_EQ(before, after);
}

TEST(WorkloadFunc, MatrixTransposeExact) {
  GlobalMemory mem;
  MatrixTransposeWorkload wl(MatrixTransposeWorkload::Params{.n = 64});
  run_functionally(wl, mem);
  // Full exhaustive check at this size.
  const Addr a = wl.input_addr();
  const Addr b = wl.output_addr();
  for (std::uint32_t i = 0; i < 64; ++i) {
    for (std::uint32_t j = 0; j < 64; ++j) {
      EXPECT_EQ(mem.load<std::int32_t>(a + (i * 64ULL + j) * 4),
                mem.load<std::int32_t>(b + (j * 64ULL + i) * 4));
    }
  }
}

TEST(WorkloadFunc, FirMatchesReference) {
  GlobalMemory mem;
  FirWorkload wl(FirWorkload::Params{.num_samples = 32768});
  run_functionally(wl, mem);
  EXPECT_TRUE(wl.verify(mem));
}

TEST(WorkloadFunc, ConvolutionMatchesReference) {
  GlobalMemory mem;
  ConvolutionWorkload wl(ConvolutionWorkload::Params{.width = 128, .height = 128});
  run_functionally(wl, mem);
  EXPECT_TRUE(wl.verify(mem));
}

TEST(WorkloadFunc, GradientDescentConverges) {
  GlobalMemory mem;
  GradientDescentWorkload wl(GradientDescentWorkload::Params{.n = 1024});
  run_functionally(wl, mem);
  EXPECT_TRUE(wl.verify(mem));
  const auto& losses = wl.losses();
  ASSERT_FALSE(losses.empty());
  // Monotone-ish descent: last loss well below the first.
  EXPECT_LT(losses.back(), losses.front() * 0.5);
}

TEST(WorkloadFunc, KMeansLabelsValidAndStable) {
  GlobalMemory mem;
  KMeansWorkload wl(KMeansWorkload::Params{.n = 2048, .iterations = 4});
  run_functionally(wl, mem);
  EXPECT_TRUE(wl.verify(mem));
}

TEST(WorkloadFunc, AesMacsVerify) {
  GlobalMemory mem;
  AesWorkload wl(AesWorkload::Params{.bytes_per_pass = 128 * 1024, .passes = 1});
  run_functionally(wl, mem);
  EXPECT_TRUE(wl.verify(mem));
}

// ---------------------------------------------------------------------------
// Degenerate Params: each is rejected in setup with a message naming the
// field, instead of dividing by zero or indexing an empty vector later.
// ---------------------------------------------------------------------------

template <typename W>
std::shared_ptr<Workload> with(typename W::Params p) {
  return std::make_shared<W>(p);
}

TEST(WorkloadParamsDeathTest, DegenerateParamsAreRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const struct {
    std::shared_ptr<Workload> wl;
    const char* error;  // regex
  } kCases[] = {
      {with<BitonicSortWorkload>({.small_range = 1}),
       "BitonicSortWorkload: small_range must be >= 2"},
      {with<BitonicSortWorkload>({.n = 1000}),
       "BitonicSortWorkload: n must be a power of two >= 512"},
      {with<MatrixTransposeWorkload>({.n = 0}),
       "MatrixTransposeWorkload: n must be a positive multiple of 16"},
      {with<MatrixTransposeWorkload>({.magnitude = 0}),
       "MatrixTransposeWorkload: magnitude must be >= 1"},
      {with<FirWorkload>({.num_samples = 0}),
       "FirWorkload: num_samples must be a positive multiple of num_blocks"},
      {with<FirWorkload>({.num_blocks = 0}), "FirWorkload: num_blocks must be >= 1"},
      {with<AesWorkload>({.bytes_per_pass = 0}),
       "AesWorkload: bytes_per_pass must be a positive multiple of 1024"},
      {with<AesWorkload>({.passes = 0}), "AesWorkload: passes must be >= 1"},
      {with<ConvolutionWorkload>({.width = 0}),
       "ConvolutionWorkload: width must be a positive multiple of 16"},
      {with<ConvolutionWorkload>({.height = 8}),
       "ConvolutionWorkload: height must be a positive multiple of 16"},
      {with<KMeansWorkload>({.k = 0}), "KMeansWorkload: k must be >= 1 and <= n"},
      {with<KMeansWorkload>({.d = 4}), "KMeansWorkload: d must be >= 9 and <= 64"},
      {with<GradientDescentWorkload>({.iterations = 0}),
       "GradientDescentWorkload: iterations must be >= 1"},
      {with<GradientDescentWorkload>({.n = 100}),
       "GradientDescentWorkload: n must be a positive multiple of 128"},
  };
  for (const auto& c : kCases) {
    EXPECT_DEATH(
        {
          GlobalMemory mem;
          run_functionally(*c.wl, mem);
          (void)c.wl->verify(mem);
        },
        c.error);
  }
}

// ---------------------------------------------------------------------------
// Trace invariants, parameterized over the whole suite.
// ---------------------------------------------------------------------------

class AllWorkloadsTrace : public ::testing::TestWithParam<std::string_view> {};

TEST_P(AllWorkloadsTrace, TracesAreLineAlignedAndNonEmpty) {
  GlobalMemory mem;
  auto wl = make_workload(GetParam(), 0.1);
  ASSERT_NE(wl, nullptr);
  wl->setup(mem);
  ASSERT_GT(wl->kernel_count(), 0u);
  std::size_t total_ops = 0;
  for (std::size_t k = 0; k < wl->kernel_count(); ++k) {
    const KernelTrace t = wl->generate_kernel(k, *&mem);
    EXPECT_FALSE(t.name.empty());
    for (const WorkgroupTrace& wg : t.workgroups) {
      for (const MemOp& op : wg.ops) {
        EXPECT_EQ(op.addr % kLineBytes, 0u) << "op not line-aligned in " << t.name;
        EXPECT_LT(op.addr, mem.allocated_bytes()) << "op outside allocations in " << t.name;
      }
      total_ops += wg.ops.size();
    }
  }
  EXPECT_GT(total_ops, 0u);
}

TEST_P(AllWorkloadsTrace, ParamLinesAreWrittenAndCompressible) {
  GlobalMemory mem;
  auto wl = make_workload(GetParam(), 0.1);
  wl->setup(mem);
  CodecSet codecs;
  for (std::size_t k = 0; k < wl->kernel_count() && k < 8; ++k) {
    const KernelTrace t = wl->generate_kernel(k, mem);
    ASSERT_NE(t.param_addr, 0u) << t.name;
    const Line param = mem.read_line(t.param_addr);
    // Launch metadata (small ints, pointers) must compress well under the
    // best codec — this is the paper's observation about kernel-launch
    // traffic. (FPC alone can miss: pointer words exceed its 16-bit
    // narrow patterns; the dictionary codec handles them.)
    std::uint32_t best = kLineBits;
    for (const Codec* codec : codecs.real_codecs()) {
      best = std::min(best, codec->compress(param).size_bits);
    }
    EXPECT_LT(best, kLineBits / 2) << t.name;
  }
}

TEST_P(AllWorkloadsTrace, GenerationIsDeterministic) {
  auto run_once = [&] {
    GlobalMemory mem;
    auto wl = make_workload(GetParam(), 0.1);
    wl->setup(mem);
    std::uint64_t fingerprint = 1469598103934665603ULL;
    const std::size_t kernels = std::min<std::size_t>(wl->kernel_count(), 4);
    for (std::size_t k = 0; k < kernels; ++k) {
      const KernelTrace t = wl->generate_kernel(k, mem);
      for (const WorkgroupTrace& wg : t.workgroups) {
        for (const MemOp& op : wg.ops) {
          fingerprint = (fingerprint ^ (op.addr + op.is_write)) * 1099511628211ULL;
        }
      }
    }
    return fingerprint;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(AllWorkloadsTrace, ScalingShrinksWork) {
  GlobalMemory mem_small, mem_large;
  auto small = make_workload(GetParam(), 0.05);
  auto large = make_workload(GetParam(), 1.0);
  small->setup(mem_small);
  large->setup(mem_large);
  EXPECT_LT(mem_small.allocated_bytes(), mem_large.allocated_bytes());
}

INSTANTIATE_TEST_SUITE_P(Suite, AllWorkloadsTrace,
                         ::testing::Values("AES", "BS", "FIR", "GD", "KM", "MT", "SC"),
                         [](const auto& info) { return std::string(info.param); });

// ---------------------------------------------------------------------------
// Functional goldens: every trace and every byte a generator leaves behind.
// Run fingerprints see memory only through the payloads that cross the
// fabric (and only in compressed runs), so these pin what the generators
// compute and store, independent of the timing model.
// ---------------------------------------------------------------------------

/// Digest of one functional run on a fresh memory: each kernel's trace
/// (name, launch attributes, per-workgroup ops), then — after verify —
/// every byte below allocated_bytes() and the resident page count.
std::uint64_t functional_digest(std::string_view abbrev, double scale) {
  GlobalMemory mem;
  auto wl = make_workload(abbrev, scale);
  wl->setup(mem);
  FingerprintHasher f;
  for (std::size_t k = 0; k < wl->kernel_count(); ++k) {
    const KernelTrace t = wl->generate_kernel(k, mem);
    f.add_str(t.name);
    f.add_u64(t.compute_cycles_per_op);
    f.add_u64(t.param_addr);
    f.add_u64(t.max_outstanding);
    f.add_u64(t.workgroups.size());
    for (const WorkgroupTrace& wg : t.workgroups) {
      f.add_u64(wg.ops.size());
      for (const MemOp& op : wg.ops) {
        f.add_u64(op.addr);
        f.add_byte(op.is_write ? 1 : 0);
      }
    }
  }
  EXPECT_TRUE(wl->verify(mem)) << abbrev << " at scale " << scale;
  std::array<std::uint8_t, kPageBytes> page;
  for (Addr a = 0; a < mem.allocated_bytes(); a += kPageBytes) {
    mem.read(a, page);
    for (const std::uint8_t b : page) f.add_byte(b);
  }
  f.add_u64(mem.resident_pages());
  return f.value();
}

class WorkloadGolden : public ::testing::TestWithParam<std::string_view> {};

TEST_P(WorkloadGolden, FunctionalDigestPinned) {
  // Recorded before the generators moved to window-at-a-time memory
  // access; a rewrite of any generator must reproduce them exactly.
  const struct {
    std::string_view abbrev;
    std::uint64_t full;   // scale 1.0, the benchmark's inputs
    std::uint64_t tenth;  // scale 0.1
  } kGoldens[] = {
      {"AES", 0x98d7026be99ded84ULL, 0x525acd7c0e0ec740ULL},
      {"BS", 0xdc30490c6c3791d4ULL, 0x3e8a9715b72ec522ULL},
      {"FIR", 0xe02aa2aa6f98931eULL, 0x5b5e853fb7340fbcULL},
      {"GD", 0x93611ece06b14266ULL, 0xd8aa3f35a65755eaULL},
      {"KM", 0xfebdd9cb1c4987c5ULL, 0x076e33dc23a6123cULL},
      {"MT", 0xa4f65e38a6fa3ab4ULL, 0x79f0637db1e4afe4ULL},
      {"SC", 0x93e8871f29323b9bULL, 0x150b0271806d51bcULL},
  };
  for (const auto& g : kGoldens) {
    if (g.abbrev != GetParam()) continue;
    const std::uint64_t full = functional_digest(g.abbrev, 1.0);
    const std::uint64_t tenth = functional_digest(g.abbrev, 0.1);
    EXPECT_EQ(full, g.full) << std::hex << "scale 1.0: 0x" << full;
    EXPECT_EQ(tenth, g.tenth) << std::hex << "scale 0.1: 0x" << tenth;
    return;
  }
  FAIL() << "no golden for " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(, WorkloadGolden,
                         ::testing::Values("AES", "BS", "FIR", "GD", "KM", "MT", "SC"),
                         [](const auto& info) { return std::string(info.param); });

// ---------------------------------------------------------------------------
// Data-distribution properties backing the Table V shapes.
// ---------------------------------------------------------------------------

double buffer_entropy(const GlobalMemory& mem, Addr base, std::size_t bytes) {
  EntropyAccumulator acc;
  for (std::size_t off = 0; off < bytes; off += kLineBytes) {
    const Line l = mem.read_line(base + off);
    acc.add(l);
  }
  return acc.normalized();
}

TEST(WorkloadData, AesPlaintextIsIncompressibleHighEntropy) {
  GlobalMemory mem;
  AesWorkload wl(AesWorkload::Params{.bytes_per_pass = 256 * 1024, .passes = 1});
  wl.setup(mem);
  const auto& region = mem.regions()[0];  // plaintext
  EXPECT_GT(buffer_entropy(mem, region.base, region.bytes), 0.99);
}

TEST(WorkloadData, BitonicKeysAreNearZeroEntropy) {
  GlobalMemory mem;
  BitonicSortWorkload wl;
  wl.setup(mem);
  const auto& region = mem.regions()[0];
  EXPECT_LT(buffer_entropy(mem, region.base, region.bytes), 0.1);
}

TEST(WorkloadData, ConvolutionImageFavorsBdi) {
  GlobalMemory mem;
  ConvolutionWorkload wl(ConvolutionWorkload::Params{.width = 128, .height = 128});
  wl.setup(mem);
  const auto& region = mem.regions()[0];  // src image
  CodecSet codecs;
  std::uint64_t bdi_bits = 0, fpc_bits = 0;
  for (std::size_t off = 0; off < region.bytes; off += kLineBytes) {
    const Line l = mem.read_line(region.base + off);
    bdi_bits += codecs.get(CodecId::kBdi).compress(l).size_bits;
    fpc_bits += codecs.get(CodecId::kFpc).compress(l).size_bits;
  }
  // BDI compresses the smooth HDR image; FPC cannot (values exceed 16-bit
  // narrow patterns).
  EXPECT_LT(bdi_bits * 2, fpc_bits);
}

TEST(WorkloadData, KmeansPointsFavorWordCodecs) {
  GlobalMemory mem;
  KMeansWorkload wl(KMeansWorkload::Params{.n = 2048});
  wl.setup(mem);
  const auto& region = mem.regions()[0];  // points
  CodecSet codecs;
  std::uint64_t bdi_bits = 0, cpack_bits = 0;
  for (std::size_t off = 0; off < region.bytes; off += kLineBytes) {
    const Line l = mem.read_line(region.base + off);
    bdi_bits += codecs.get(CodecId::kBdi).compress(l).size_bits;
    cpack_bits += codecs.get(CodecId::kCpackZ).compress(l).size_bits;
  }
  EXPECT_LT(cpack_bits * 2, bdi_bits);
}

TEST(WorkloadData, FirSignalHasQuietAndLoudPhases) {
  GlobalMemory mem;
  FirWorkload::Params p;
  FirWorkload wl(p);
  wl.setup(mem);
  const auto& region = mem.regions()[0];  // input signal
  // Quiet intro compresses with FPC; loud body does not.
  CodecSet codecs;
  const Line quiet = mem.read_line(region.base + 10 * kLineBytes);
  const Line loud = mem.read_line(region.base + (p.quiet_samples + 100000) * 4ULL);
  EXPECT_LT(codecs.get(CodecId::kFpc).compress(quiet).size_bits, kLineBits / 3);
  EXPECT_EQ(codecs.get(CodecId::kFpc).compress(loud).size_bits, kLineBits);
  EXPECT_LT(codecs.get(CodecId::kBdi).compress(loud).size_bits, kLineBits);
}

}  // namespace
}  // namespace mgcomp
