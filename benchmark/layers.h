// Outside-in layer measurement for mgbench.
//
// Every number here is taken through the library's public interfaces: a
// decorator around Workload and one around CompressionPolicy time the calls
// the simulator makes into those layers, and standalone replays through
// CodecSet, BlockLzss, Engine, the fabrics and Cache price the work the
// remaining layers did in a run. Nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adaptive/policy.h"
#include "core/system_config.h"
#include "core/workload.h"

namespace mgbench {

using mgcomp::CompressionPolicy;
using mgcomp::Line;
using mgcomp::Workload;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One interval of host time for the Chrome trace: name, start, end and
/// the index of its parent span (-1 for a root).
struct Span {
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  int parent{-1};
  std::uint64_t calls{0};  ///< aggregated call count (adaptive.decide only)
};

/// Spans of one traced pass, kept in memory and written once at the end.
class SpanLog {
 public:
  int add(std::string name, std::int64_t start, std::int64_t end, int parent,
          std::uint64_t calls = 0) {
    spans_.push_back(Span{std::move(name), start, end, parent, calls});
    return static_cast<int>(spans_.size()) - 1;
  }
  void set_end(int span, std::int64_t end) {
    spans_.at(static_cast<std::size_t>(span)).end_ns = end;
  }
  /// Chrome trace-event JSON ("X" events, microseconds, one thread).
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
};

/// Evenly spaced sample of a stream of unknown length, bounded to `cap`
/// items: keeps every stride-th item and, when full, drops every other kept
/// item and doubles the stride. Deterministic for a given stream.
template <typename T>
class StrideSampler {
 public:
  explicit StrideSampler(std::size_t cap) : cap_(cap) {}
  /// Advances the stream by one item; true when that item should be kept.
  [[nodiscard]] bool next() noexcept { return seen_++ % stride_ == 0; }
  void keep(T item) {
    items_.push_back(std::move(item));
    if (items_.size() < cap_) return;
    std::size_t kept = 1;  // item 0 stays where it is
    for (std::size_t i = 2; i < items_.size(); i += 2) items_[kept++] = std::move(items_[i]);
    items_.resize(kept);
    stride_ *= 2;
  }
  [[nodiscard]] const std::vector<T>& items() const noexcept { return items_; }

 private:
  std::size_t cap_;
  std::uint64_t seen_{0};
  std::uint64_t stride_{1};
  std::vector<T> items_;
};

/// Totals the decorators of one traced pass accumulate. Single-threaded:
/// every traced run pins shards = 1.
struct LayerProbe {
  std::uint64_t decide_calls{0};
  std::int64_t decide_ns{0};  ///< gross: includes one clock-read floor per call
  std::uint64_t block_calls{0};
  std::int64_t block_ns{0};
  std::int64_t setup_ns{0};
  std::int64_t generate_ns{0};
  std::int64_t verify_ns{0};
  std::uint64_t kernels{0};
  /// Payloads the policy was asked about, replayed through the codecs.
  StrideSampler<Line> lines{1u << 14};
  StrideSampler<std::vector<std::uint8_t>> blocks{256};

  /// Gross host time and calls spent inside the policy so far.
  [[nodiscard]] std::int64_t policy_ns() const noexcept { return decide_ns + block_ns; }
  [[nodiscard]] std::uint64_t policy_calls() const noexcept {
    return decide_calls + block_calls;
  }
};

/// Everything one traced pass records.
struct Tracing {
  LayerProbe probe;
  SpanLog log;
};

/// Host time of the timed passes, cut into segments at fixed points of the
/// pass: run and kernel boundaries and every kCallsPerMark-th policy call.
/// The passes of a workload are deterministic, so a segment is the same
/// work in every pass, and its fastest copy is its least disturbed timing.
/// Interference from other tenants comes and goes within a pass, so the
/// sum of those minima estimates an undisturbed pass far more steadily
/// than any statistic of whole passes.
class PassClock {
 public:
  static constexpr std::uint64_t kCallsPerMark = 16;

  void start_pass() {
    marks_.clear();
    setup_.clear();
    calls_ = 0;
    mark();
  }
  void mark() { marks_.push_back(now_ns()); }
  void policy_call() {
    if (++calls_ % kCallsPerMark == 0) mark();
  }
  /// Brackets set-up work (system construction, Workload::setup); nothing
  /// between the two may mark.
  void begin_setup() {
    mark();
    setup_.push_back(marks_.size() - 1);
  }
  void end_setup() { mark(); }
  /// Folds the pass just ended into the per-segment minima. False when its
  /// segments do not line up with the earlier passes', which a
  /// deterministic pass never does.
  [[nodiscard]] bool end_pass();

  /// Sums of the per-segment minima, for the whole pass and for its set-up
  /// segments: over every pass so far (kAll), or over the even or the odd
  /// passes alone. The two halves are independent estimates of the same
  /// sum, so their difference shows how steady the estimate is.
  static constexpr int kAll = -1;
  [[nodiscard]] double wall_ns(int half = kAll) const;
  [[nodiscard]] double setup_ns(int half = kAll) const;
  [[nodiscard]] std::size_t segments() const noexcept { return best_[0].size(); }

 private:
  [[nodiscard]] std::int64_t segment_ns(std::size_t i, int half) const;

  std::vector<std::int64_t> marks_;
  std::vector<std::size_t> setup_;  ///< indices of the set-up segments
  std::uint64_t calls_{0};
  std::uint64_t passes_{0};
  std::vector<std::int64_t> best_[2];  ///< per-segment minima of the even and odd passes
  std::vector<std::size_t> best_setup_;
};

/// Forwards every CompressionPolicy virtual to `inner` and mirrors inner's
/// stats() after each call that can change them (the system reads stats()
/// non-virtually). With a probe it times decide() and decide_block() into
/// it; with a clock it counts them towards the pass's marks.
class TimedPolicy final : public CompressionPolicy {
 public:
  TimedPolicy(std::unique_ptr<CompressionPolicy> inner, LayerProbe* probe, PassClock* clock)
      : inner_(std::move(inner)), probe_(probe), clock_(clock) {}

  mgcomp::CompressionDecision decide(mgcomp::LineView line) override;
  mgcomp::BlockDecision decide_block(const std::uint8_t* data, std::size_t size) override;
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  void set_pressure_probe(mgcomp::PressureProbe probe) override {
    inner_->set_pressure_probe(std::move(probe));
  }
  void set_payload_pool(mgcomp::PayloadPool* pool) override { inner_->set_payload_pool(pool); }
  void on_link_feedback(mgcomp::LinkEvent ev) override {
    inner_->on_link_feedback(ev);
    stats_ = inner_->stats();
  }
  void set_tracer(mgcomp::Tracer* tracer, std::uint32_t track) override {
    inner_->set_tracer(tracer, track);
  }
  void trace_flush() override { inner_->trace_flush(); }

 private:
  std::unique_ptr<CompressionPolicy> inner_;
  LayerProbe* probe_;
  PassClock* clock_;
};

/// Wraps every policy `inner` creates in a TimedPolicy reporting to `probe`
/// or `clock` (one of them is null).
[[nodiscard]] mgcomp::PolicyFactory timed_policy(mgcomp::PolicyFactory inner,
                                                 LayerProbe* probe, PassClock* clock);

/// Forwards Workload calls to `inner`, timing setup, each generate_kernel
/// and verify. Always on: the untraced pass needs the setup time, and a
/// handful of clock reads per kernel is below the noise. With a SpanLog it
/// also records the spans of the run, inferring each kernel's simulation
/// (core.run_kernel) as the gap between consecutive generate_kernel calls;
/// with a PassClock it marks setup and the kernel boundaries.
class TimedWorkload final : public Workload {
 public:
  TimedWorkload(std::unique_ptr<Workload> inner, LayerProbe* probe, SpanLog* log,
                PassClock* clock, int parent_span);

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::string_view abbrev() const noexcept override { return inner_->abbrev(); }
  void setup(mgcomp::GlobalMemory& mem) override;
  [[nodiscard]] std::size_t kernel_count() const override { return inner_->kernel_count(); }
  mgcomp::KernelTrace generate_kernel(std::size_t k, mgcomp::GlobalMemory& mem) override;
  [[nodiscard]] bool verify(const mgcomp::GlobalMemory& mem) const override;

  [[nodiscard]] std::int64_t setup_ns() const noexcept { return setup_ns_; }
  /// Host time simulating the kernels: each gap between a generate_kernel
  /// and the next generate_kernel or verify, policy time removed.
  [[nodiscard]] std::int64_t run_kernel_ns() const noexcept { return run_kernel_ns_; }
  /// When verify() returned (the rest of MultiGpuSystem::run is result
  /// collection).
  [[nodiscard]] std::int64_t verify_end_ns() const noexcept { return verify_end_; }

 private:
  /// Closes the kernel span that started when the previous generate_kernel
  /// returned, at `end`. Const because verify() ends the last kernel; the
  /// span bookkeeping is not part of the workload's observable state.
  void close_kernel(std::int64_t end) const;

  std::unique_ptr<Workload> inner_;
  LayerProbe* probe_;
  SpanLog* log_;
  PassClock* clock_;
  int parent_;
  std::int64_t setup_ns_{0};
  mutable std::int64_t run_kernel_ns_{0};
  mutable std::int64_t kernel_start_{-1};
  std::uint64_t kernel_index_{0};
  std::uint64_t policy_calls_at_start_{0};
  std::int64_t policy_ns_at_start_{0};
  mutable std::int64_t verify_end_{0};
};

/// Host ns per step of a fixed chain of dependent multiply-adds, which
/// takes the same number of core cycles on every run: the inverse of the
/// core clock this thread is getting right now.
[[nodiscard]] double chain_ns_per_step(std::uint64_t steps);

/// Mean reading of an empty timed region (two back-to-back clock reads):
/// what the TimedPolicy timer adds to each decide() it measures.
[[nodiscard]] double timer_floor_ns();

/// Per-call host cost of the compression layer, replayed over captured
/// payloads.
struct CompressionReplay {
  double probe_all_ns{0};          ///< CodecSet::probe_all, per line
  double zero_line_frac{0};
  double compress_ns[3]{};         ///< FPC, BDI, C-Pack+Z compress_into, per line
  double block_probe_ns_per_kb{0};
  double block_compress_ns_per_kb{0};
};

/// Replays `lines` through the line codecs and `blocks` through BlockLzss.
/// With no captured blocks (runs that never used the bulk path) the lines
/// are packed into page-sized blocks instead, so the block codec's cost on
/// the same data stays visible.
[[nodiscard]] CompressionReplay replay_compression(
    const std::vector<Line>& lines, const std::vector<std::vector<std::uint8_t>>& blocks);

/// Host ns per executed event of a standalone Engine whose heap holds
/// `depth` pending events, each of which reschedules itself.
[[nodiscard]] double engine_ns_per_event(std::size_t depth);

/// Host ns per message of a standalone fabric of the given topology moving
/// messages of `wire_bytes` through send -> deliver -> consume between
/// `gpus` endpoints, with the engine's own cost (`engine_ns` per event)
/// taken out.
[[nodiscard]] double fabric_ns_per_message(mgcomp::FabricKind kind,
                                           const mgcomp::HierTopology& topo, std::uint32_t gpus,
                                           std::uint32_t wire_bytes, double engine_ns);

/// Host ns per Cache::access for a cache of the given shape replaying an
/// address stream that hits at about `hit_rate`.
[[nodiscard]] double cache_ns_per_access(std::size_t size_bytes, std::uint32_t ways,
                                         double hit_rate);

}  // namespace mgbench
