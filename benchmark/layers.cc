#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "compression/block_lzss.h"
#include "compression/codec_set.h"
#include "fabric/bus.h"
#include "fabric/hier_fabric.h"
#include "fabric/switch_fabric.h"
#include "memory/cache.h"
#include "sim/engine.h"

namespace mgbench {

using namespace mgcomp;

namespace {

/// Results of timed loops are folded in here so the compiler cannot drop
/// the work being timed.
volatile std::uint64_t g_sink = 0;

/// Median host ns per item of `body`, which processes `items` items per
/// call. Each of the five samples repeats `body` for about 10 ms.
template <typename F>
double ns_per_item(std::uint64_t items, F&& body) {
  std::int64_t t0 = now_ns();
  body();
  const std::int64_t once = std::max<std::int64_t>(1, now_ns() - t0);
  const std::int64_t calls = std::max<std::int64_t>(1, 10'000'000 / once);
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    t0 = now_ns();
    for (std::int64_t c = 0; c < calls; ++c) body();
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(calls * static_cast<std::int64_t>(items)));
  }
  std::nth_element(samples.begin(), samples.begin() + 2, samples.end());
  return samples[2];
}

}  // namespace

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\": [\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "  {\"name\": \"" + s.name;
    std::snprintf(buf, sizeof(buf),
                  "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    out += buf;
    if (s.parent >= 0) {
      const Span& parent = spans_[static_cast<std::size_t>(s.parent)];
      out += ", \"parent_name\": \"" + parent.name + '"';
    }
    if (s.calls > 0) {
      std::snprintf(buf, sizeof(buf), ", \"calls\": %llu",
                    static_cast<unsigned long long>(s.calls));
      out += buf;
    }
    out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool PassClock::end_pass() {
  mark();
  const std::size_t n = marks_.size() - 1;
  if (passes_ == 0) {
    best_setup_ = setup_;
  } else if (n != best_[0].size() || setup_ != best_setup_) {
    return false;
  }
  std::vector<std::int64_t>& best = best_[passes_++ % 2];
  if (best.empty()) best.assign(n, std::numeric_limits<std::int64_t>::max());
  for (std::size_t i = 0; i < n; ++i) best[i] = std::min(best[i], marks_[i + 1] - marks_[i]);
  return true;
}

std::int64_t PassClock::segment_ns(std::size_t i, int half) const {
  if (half != kAll) return best_[half][i];
  return best_[1].empty() ? best_[0][i] : std::min(best_[0][i], best_[1][i]);
}

double PassClock::wall_ns(int half) const {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < best_[0].size(); ++i) sum += segment_ns(i, half);
  return static_cast<double>(sum);
}

double PassClock::setup_ns(int half) const {
  std::int64_t sum = 0;
  for (const std::size_t i : best_setup_) sum += segment_ns(i, half);
  return static_cast<double>(sum);
}

CompressionDecision TimedPolicy::decide(LineView line) {
  if (probe_ == nullptr) {
    if (clock_ != nullptr) clock_->policy_call();
    const CompressionDecision d = inner_->decide(line);
    stats_ = inner_->stats();
    return d;
  }
  const std::int64_t t0 = now_ns();
  const CompressionDecision d = inner_->decide(line);
  probe_->decide_ns += now_ns() - t0;
  ++probe_->decide_calls;
  stats_ = inner_->stats();
  if (probe_->lines.next()) {
    Line copy;
    std::copy(line.begin(), line.end(), copy.begin());
    probe_->lines.keep(copy);
  }
  return d;
}

BlockDecision TimedPolicy::decide_block(const std::uint8_t* data, std::size_t size) {
  if (probe_ == nullptr) {
    if (clock_ != nullptr) clock_->policy_call();
    const BlockDecision d = inner_->decide_block(data, size);
    stats_ = inner_->stats();
    return d;
  }
  const std::int64_t t0 = now_ns();
  const BlockDecision d = inner_->decide_block(data, size);
  probe_->block_ns += now_ns() - t0;
  ++probe_->block_calls;
  stats_ = inner_->stats();
  if (probe_->blocks.next()) probe_->blocks.keep(std::vector<std::uint8_t>(data, data + size));
  return d;
}

PolicyFactory timed_policy(PolicyFactory inner, LayerProbe* probe, PassClock* clock) {
  return [inner = std::move(inner), probe, clock](const CodecSet& codecs) {
    return std::unique_ptr<CompressionPolicy>(
        std::make_unique<TimedPolicy>(inner(codecs), probe, clock));
  };
}

TimedWorkload::TimedWorkload(std::unique_ptr<Workload> inner, LayerProbe* probe, SpanLog* log,
                             PassClock* clock, int parent_span)
    : inner_(std::move(inner)), probe_(probe), log_(log), clock_(clock), parent_(parent_span) {}

void TimedWorkload::setup(GlobalMemory& mem) {
  if (clock_ != nullptr) clock_->begin_setup();
  const std::int64_t t0 = now_ns();
  inner_->setup(mem);
  const std::int64_t t1 = now_ns();
  if (clock_ != nullptr) clock_->end_setup();
  setup_ns_ = t1 - t0;
  if (probe_ != nullptr) probe_->setup_ns += setup_ns_;
  if (log_ != nullptr) log_->add("workloads.setup", t0, t1, parent_);
}

void TimedWorkload::close_kernel(std::int64_t end) const {
  if (kernel_start_ < 0) return;
  std::int64_t policy_ns = 0;
  std::uint64_t calls = 0;
  if (probe_ != nullptr) {
    policy_ns = probe_->policy_ns() - policy_ns_at_start_;
    calls = probe_->policy_calls() - policy_calls_at_start_;
  }
  run_kernel_ns_ += end - kernel_start_ - policy_ns;
  if (log_ != nullptr) {
    const int span = log_->add("core.run_kernel[" + std::to_string(kernel_index_) + "]",
                               kernel_start_, end, parent_);
    if (calls > 0) {
      log_->add("adaptive.decide", kernel_start_, kernel_start_ + policy_ns, span, calls);
    }
  }
  kernel_start_ = -1;
}

KernelTrace TimedWorkload::generate_kernel(std::size_t k, GlobalMemory& mem) {
  if (clock_ != nullptr) clock_->mark();
  const std::int64_t t0 = now_ns();
  close_kernel(t0);
  KernelTrace trace = inner_->generate_kernel(k, mem);
  const std::int64_t t1 = now_ns();
  if (clock_ != nullptr) clock_->mark();
  if (probe_ != nullptr) {
    probe_->generate_ns += t1 - t0;
    ++probe_->kernels;
    policy_calls_at_start_ = probe_->policy_calls();
    policy_ns_at_start_ = probe_->policy_ns();
  }
  if (log_ != nullptr) {
    log_->add("workloads.generate[" + std::to_string(k) + "]", t0, t1, parent_);
  }
  kernel_index_ = k;
  kernel_start_ = t1;
  return trace;
}

bool TimedWorkload::verify(const GlobalMemory& mem) const {
  if (clock_ != nullptr) clock_->mark();
  const std::int64_t t0 = now_ns();
  close_kernel(t0);
  const bool ok = inner_->verify(mem);
  const std::int64_t t1 = now_ns();
  if (probe_ != nullptr) probe_->verify_ns += t1 - t0;
  if (log_ != nullptr) log_->add("workloads.verify", t0, t1, parent_);
  verify_end_ = t1;
  return ok;
}

double chain_ns_per_step(std::uint64_t steps) {
  std::uint64_t x = g_sink | 1;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < steps; ++i) x = x * 6364136223846793005ULL + (x >> 7);
  const std::int64_t t1 = now_ns();
  g_sink = x;
  return static_cast<double>(t1 - t0) / static_cast<double>(steps);
}

double timer_floor_ns() {
  constexpr int kRegions = 200'000;
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    std::int64_t acc = 0;
    for (int i = 0; i < kRegions; ++i) {
      const std::int64_t t0 = now_ns();
      acc += now_ns() - t0;
    }
    samples.push_back(static_cast<double>(acc) / kRegions);
  }
  std::nth_element(samples.begin(), samples.begin() + 2, samples.end());
  return samples[2];
}

CompressionReplay replay_compression(const std::vector<Line>& lines,
                                     const std::vector<std::vector<std::uint8_t>>& blocks) {
  CompressionReplay r;
  if (lines.empty()) return r;
  const CodecSet codecs;
  r.probe_all_ns = ns_per_item(lines.size(), [&] {
    std::array<std::uint32_t, kNumCodecIds> bits{};
    std::uint64_t acc = 0;
    for (const Line& l : lines) {
      codecs.probe_all(LineView(l), bits);
      acc += bits[1] + bits[2] + bits[3];
    }
    g_sink = g_sink + acc;
  });
  std::size_t zeros = 0;
  for (const Line& l : lines) zeros += l == Line{} ? 1 : 0;
  r.zero_line_frac = static_cast<double>(zeros) / static_cast<double>(lines.size());
  const CodecId ids[3] = {CodecId::kFpc, CodecId::kBdi, CodecId::kCpackZ};
  for (int c = 0; c < 3; ++c) {
    const Codec& codec = codecs.get(ids[c]);
    Compressed out;
    r.compress_ns[c] = ns_per_item(lines.size(), [&] {
      std::uint64_t acc = 0;
      for (const Line& l : lines) {
        codec.compress_into(LineView(l), out);
        acc += out.size_bits;
      }
      g_sink = g_sink + acc;
    });
  }

  std::vector<std::vector<std::uint8_t>> packed;
  const std::vector<std::vector<std::uint8_t>>* replay = &blocks;
  if (blocks.empty()) {
    constexpr std::size_t kLinesPerBlock = BlockLzss::kMaxBlockBytes / kLineBytes;
    for (std::size_t i = 0; i + kLinesPerBlock <= lines.size(); i += kLinesPerBlock) {
      std::vector<std::uint8_t> b;
      for (std::size_t j = i; j < i + kLinesPerBlock; ++j) {
        b.insert(b.end(), lines[j].begin(), lines[j].end());
      }
      packed.push_back(std::move(b));
    }
    replay = &packed;
  }
  if (replay->empty()) return r;
  std::uint64_t bytes = 0;
  for (const auto& b : *replay) bytes += b.size();
  const std::uint64_t kb = std::max<std::uint64_t>(1, bytes / 1024);
  r.block_probe_ns_per_kb = ns_per_item(kb, [&] {
    std::uint64_t acc = 0;
    for (const auto& b : *replay) acc += BlockLzss::probe(b.data(), b.size());
    g_sink = g_sink + acc;
  });
  std::vector<std::uint8_t> frame(BlockLzss::max_encoded_bytes(BlockLzss::kMaxBlockBytes));
  r.block_compress_ns_per_kb = ns_per_item(kb, [&] {
    std::uint64_t acc = 0;
    for (const auto& b : *replay) {
      acc += BlockLzss::compress_into(b.data(), b.size(), frame.data());
    }
    g_sink = g_sink + acc;
  });
  return r;
}

namespace {

/// Self-rescheduling event for the engine replay: keeps the heap depth
/// constant while `remaining` lasts, with pseudo-random gaps so pushes land
/// all over the heap rather than always at its tail.
struct Hop {
  struct State {
    Engine* engine;
    std::uint64_t remaining;
    std::uint64_t lcg;
    Tick spread;
  };
  State* s;
  void operator()() const {
    if (s->remaining == 0) return;
    --s->remaining;
    s->lcg = s->lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    s->engine->schedule_in(1 + (s->lcg >> 33) % s->spread, Hop{s});
  }
};

}  // namespace

double engine_ns_per_event(std::size_t depth) {
  constexpr std::uint64_t kEvents = 200'000;
  return ns_per_item(kEvents, [depth] {
    Engine engine;
    Hop::State state{&engine, kEvents - depth, 0x9e3779b97f4a7c15ULL, 2 * depth};
    for (std::size_t i = 0; i < depth; ++i) engine.schedule_at(i, Hop{&state});
    engine.run();
    g_sink = g_sink + engine.events_executed();
  });
}

double fabric_ns_per_message(FabricKind kind, const HierTopology& topo, std::uint32_t gpus,
                             std::uint32_t wire_bytes, double engine_ns) {
  constexpr std::uint64_t kMessages = 50'000;
  constexpr std::uint32_t kOutstanding = 4;  // per sender, like a small CU window
  const std::uint32_t header = 4;            // Data-Ready header bytes (Fig. 4)
  const std::uint32_t payload_bits = (std::max(wire_bytes, header + 1) - header) * 8;
  std::uint64_t events = 0;
  const double gross = ns_per_item(kMessages, [&] {
    Engine engine;
    std::unique_ptr<Fabric> fabric;
    switch (kind) {
      case FabricKind::kSwitch:
        fabric = std::make_unique<SwitchFabric>(engine, SwitchFabric::Params{});
        break;
      case FabricKind::kHier:
        fabric = std::make_unique<HierFabric>(engine, HierFabric::Params{.topo = topo});
        break;
      default:
        fabric = std::make_unique<BusFabric>(engine, BusFabric::Params{});
        break;
    }
    std::uint64_t to_send = kMessages;
    std::uint64_t seq = 0;
    const auto send_from = [&](std::uint32_t src) {
      if (to_send == 0) return;
      --to_send;
      Message m;
      m.type = MsgType::kDataReady;
      m.src = EndpointId{src};
      m.dst = EndpointId{(src + 1 + static_cast<std::uint32_t>(seq++ % (gpus - 1))) % gpus};
      m.payload_bits = payload_bits;
      fabric->send(std::move(m));
    };
    for (std::uint32_t g = 0; g < gpus; ++g) {
      fabric->add_endpoint("GPU" + std::to_string(g), true, [&](Message&& m) {
        // The receiver frees its buffer and the sender issues its next
        // message one cycle later, as the RDMA engine does after processing.
        const EndpointId dst = m.dst;
        const std::uint32_t src = m.src.value;
        const std::size_t bytes = m.wire_bytes();
        engine.schedule_in(1, [&, dst, src, bytes] {
          fabric->consume(dst, bytes);
          send_from(src);
        });
      });
    }
    for (std::uint32_t k = 0; k < kOutstanding; ++k) {
      for (std::uint32_t g = 0; g < gpus; ++g) send_from(g);
    }
    engine.run();
    events = engine.events_executed();
    g_sink = g_sink + fabric->stats().total_messages();
  });
  return gross - engine_ns * static_cast<double>(events) / static_cast<double>(kMessages);
}

double cache_ns_per_access(std::size_t size_bytes, std::uint32_t ways, double hit_rate) {
  constexpr std::uint64_t kAccesses = 500'000;
  Cache cache(size_bytes, ways);
  // A hot set of a quarter of the cache's lines absorbs the hits; misses
  // walk fresh lines that evict through it.
  const std::uint64_t hot_lines = std::max<std::size_t>(1, size_bytes / kLineBytes / 4);
  const auto hit_threshold = static_cast<std::uint64_t>(hit_rate * 4294967296.0);
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  std::uint64_t fresh = 1u << 24;
  return ns_per_item(kAccesses, [&] {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kAccesses; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t r = lcg >> 32;
      const Addr line = r < hit_threshold ? (r % hot_lines) : fresh++;
      hits += cache.access(line * kLineBytes, (i & 7) == 0) ? 1 : 0;
    }
    g_sink = g_sink + hits;
  });
}

}  // namespace mgbench
