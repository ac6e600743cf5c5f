// Microbenchmarks (google-benchmark): codec compression/decompression
// throughput on characteristic line corpora, and the per-message cost of
// the fabric's link-layer CRC. Not a paper figure — engineering sanity for
// the library itself.
//
// --simd=<scalar|avx2|neon> pins the kernel backend for the whole
// run (default: best available), so backends can be compared back to back.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "common/rng.h"
#include "common/word_io.h"
#include "compression/codec_set.h"
#include "compression/simd/dispatch.h"
#include "fabric/message.h"

namespace {

using namespace mgcomp;

enum class Corpus { kZero, kSparse, kNarrow, kLowDynamicRange, kRandom };

std::vector<Line> make_corpus(Corpus kind, std::size_t n) {
  Rng rng(0xc0de + static_cast<std::uint64_t>(kind));
  std::vector<Line> lines(n);
  for (Line& l : lines) {
    l.fill(0);
    switch (kind) {
      case Corpus::kZero:
        break;
      case Corpus::kSparse:
        for (std::size_t w = 0; w < 16; ++w) {
          if (rng.chance(0.15)) {
            store_le<std::uint32_t>(l, w * 4, static_cast<std::uint32_t>(rng.below(40)));
          }
        }
        break;
      case Corpus::kNarrow:
        for (std::size_t w = 0; w < 16; ++w) {
          store_le<std::uint32_t>(
              l, w * 4, static_cast<std::uint32_t>(static_cast<std::int32_t>(
                            rng.below(30000)) - 15000));
        }
        break;
      case Corpus::kLowDynamicRange: {
        const std::uint32_t base = 70000 + static_cast<std::uint32_t>(rng.below(1000));
        for (std::size_t w = 0; w < 16; ++w) {
          store_le<std::uint32_t>(l, w * 4, base + static_cast<std::uint32_t>(rng.below(100)));
        }
        break;
      }
      case Corpus::kRandom:
        for (auto& b : l) b = static_cast<std::uint8_t>(rng.next());
        break;
    }
  }
  return lines;
}

const char* corpus_name(Corpus c) {
  switch (c) {
    case Corpus::kZero: return "zero";
    case Corpus::kSparse: return "sparse";
    case Corpus::kNarrow: return "narrow";
    case Corpus::kLowDynamicRange: return "ldr";
    case Corpus::kRandom: return "random";
  }
  return "?";
}

void BM_Compress(benchmark::State& state) {
  static CodecSet set;
  const auto id = static_cast<CodecId>(state.range(0));
  const auto corpus = static_cast<Corpus>(state.range(1));
  const Codec& codec = set.get(id);
  const std::vector<Line> lines = make_corpus(corpus, 256);

  std::uint64_t total_bits = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const Compressed c = codec.compress(lines[i % lines.size()]);
    benchmark::DoNotOptimize(c.size_bits);
    total_bits += c.size_bits;
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kLineBytes);
  state.SetLabel(std::string(codec.name()) + "/" + corpus_name(corpus) + " avg_bits=" +
                 std::to_string(i == 0 ? 0 : total_bits / i));
}

// Probe vs. full encode, side by side: BM_Probe and BM_CompressInto run
// the identical (codec, corpus) grid as BM_Compress, so one report shows
// how much of the encode cost the size-only fast path avoids and what
// buffer recycling saves over fresh allocations.
void BM_Probe(benchmark::State& state) {
  static CodecSet set;
  const auto id = static_cast<CodecId>(state.range(0));
  const auto corpus = static_cast<Corpus>(state.range(1));
  const Codec& codec = set.get(id);
  const std::vector<Line> lines = make_corpus(corpus, 256);

  std::uint64_t total_bits = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint32_t bits = codec.probe(lines[i % lines.size()]);
    benchmark::DoNotOptimize(bits);
    total_bits += bits;
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kLineBytes);
  state.SetLabel(std::string(codec.name()) + "/" + corpus_name(corpus) + " avg_bits=" +
                 std::to_string(i == 0 ? 0 : total_bits / i));
}

// The adaptive sampling hot path: all three codecs probed at once via the
// fused CodecSet::probe_all(). Compare against the sum of the three
// BM_Probe rows to see what fusion saves.
void BM_ProbeAll(benchmark::State& state) {
  static CodecSet set;
  const auto corpus = static_cast<Corpus>(state.range(0));
  const std::vector<Line> lines = make_corpus(corpus, 256);

  std::array<std::uint32_t, kNumCodecIds> bits{};
  std::uint64_t total_bits = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    set.probe_all(lines[i % lines.size()], bits);
    benchmark::DoNotOptimize(bits);
    total_bits += bits[1] + bits[2] + bits[3];
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kLineBytes);
  state.SetLabel(std::string("all/") + corpus_name(corpus) + " avg_bits=" +
                 std::to_string(i == 0 ? 0 : total_bits / (3 * i)));
}

void BM_CompressInto(benchmark::State& state) {
  static CodecSet set;
  const auto id = static_cast<CodecId>(state.range(0));
  const auto corpus = static_cast<Corpus>(state.range(1));
  const Codec& codec = set.get(id);
  const std::vector<Line> lines = make_corpus(corpus, 256);

  Compressed scratch;  // recycled across iterations, as the policies do
  std::size_t i = 0;
  for (auto _ : state) {
    codec.compress_into(lines[i % lines.size()], scratch);
    benchmark::DoNotOptimize(scratch.size_bits);
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kLineBytes);
  state.SetLabel(std::string(codec.name()) + "/" + corpus_name(corpus));
}

void BM_RoundTrip(benchmark::State& state) {
  static CodecSet set;
  const auto id = static_cast<CodecId>(state.range(0));
  const Codec& codec = set.get(id);
  const std::vector<Line> lines = make_corpus(Corpus::kNarrow, 256);

  std::size_t i = 0;
  for (auto _ : state) {
    const Compressed c = codec.compress(lines[i % lines.size()]);
    const Line back = codec.decompress(c);
    benchmark::DoNotOptimize(back);
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}

// message_crc() as both fabrics stamp it in send() and RdmaEngine
// re-checks it on delivery: a header-only Read Req, a line Data-Ready and
// a 4 KB bulk Write Req.
enum class MsgShape { kHeader, kLine, kBulk4k };

Message crc_message(MsgShape shape) {
  Rng rng(0xc4c + static_cast<std::uint64_t>(shape));
  Message m;
  m.id = 0x2A;
  m.src = EndpointId{1};
  m.dst = EndpointId{2};
  m.addr = 0x10040;
  switch (shape) {
    case MsgShape::kHeader:
      m.type = MsgType::kReadReq;
      break;
    case MsgShape::kLine:
      m.type = MsgType::kDataReady;
      m.payload_bits = kLineBits;
      for (auto& b : m.data) b = static_cast<std::uint8_t>(rng.next());
      break;
    case MsgShape::kBulk4k:
      m.type = MsgType::kWriteReq;
      m.length = kPageBytes;
      m.payload_bits = kPageBytes * 8;
      m.block.resize(kPageBytes);
      for (auto& b : m.block) b = static_cast<std::uint8_t>(rng.next());
      break;
  }
  return m;
}

void BM_MessageCrc(benchmark::State& state, MsgShape shape) {
  Message m = crc_message(shape);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m);
    benchmark::DoNotOptimize(message_crc(m));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * m.wire_bytes());
}

void register_all() {
  for (const int codec : {1, 2, 3}) {  // FPC, BDI, C-Pack+Z
    for (int corpus = 0; corpus <= 4; ++corpus) {
      benchmark::RegisterBenchmark("BM_Compress", &BM_Compress)->Args({codec, corpus});
      benchmark::RegisterBenchmark("BM_Probe", &BM_Probe)->Args({codec, corpus});
      benchmark::RegisterBenchmark("BM_CompressInto", &BM_CompressInto)->Args({codec, corpus});
    }
    benchmark::RegisterBenchmark("BM_RoundTrip", &BM_RoundTrip)->Args({codec, 0});
  }
  for (int corpus = 0; corpus <= 4; ++corpus) {
    benchmark::RegisterBenchmark("BM_ProbeAll", &BM_ProbeAll)->Args({corpus});
  }
  benchmark::RegisterBenchmark("BM_MessageCrc/header", &BM_MessageCrc, MsgShape::kHeader);
  benchmark::RegisterBenchmark("BM_MessageCrc/line", &BM_MessageCrc, MsgShape::kLine);
  benchmark::RegisterBenchmark("BM_MessageCrc/bulk4k", &BM_MessageCrc, MsgShape::kBulk4k);
}

/// Consumes a leading --simd=<backend> argument (google-benchmark rejects
/// flags it does not know). Returns false on an unknown backend name.
bool apply_simd_flag(int& argc, char** argv) {
  int out = 1;
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--simd=", 7) == 0) {
      const char* name = argv[i] + 7;
      if (!mgcomp::simd::set_backend(name)) {
        std::fprintf(stderr, "bench_codec_micro: unknown or unavailable SIMD backend '%s'\n",
                     name);
        ok = false;
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (!apply_simd_flag(argc, argv)) return 2;
  std::printf("simd backend: %s\n",
              std::string(mgcomp::simd::backend_name(mgcomp::simd::active_backend())).c_str());
  register_all();
  benchmark::Initialize(&argc, argv);
  // Initialize() consumed every --benchmark_* flag; anything left over is
  // a typo and must fail the invocation, not silently run all benchmarks.
  for (int i = 1; i < argc; ++i) {
    std::fprintf(stderr, "unknown option: %s\n", argv[i]);
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
