// Structured event tracing for the simulator (MGSim/gem5-style).
//
// A Tracer records typed, timestamped events — spans (an interval of work:
// one message's wire time, one request's issue-to-retire life, one policy
// phase), instants (a retransmission, a NACK, a hard failure) and counter
// samples (bus utilization, buffer occupancy, window error rate) — into a
// bounded ring buffer, and exports them as Chrome trace-event JSON that
// opens directly in Perfetto or chrome://tracing. Track 0 is the fabric;
// track e+1 is fabric endpoint e (the CPU and each GPU), so every GPU gets
// its own swim lane.
//
// Cost discipline: recording never allocates (names and categories must be
// pointers to static storage; the ring is preallocated), never schedules
// simulation events, and never reads anything but Engine::now(). Components
// hold a `Tracer*` that is null when tracing is off, and every hook is
// guarded by that null check — the disabled path is one predictable branch,
// and a disabled run's event schedule and RunResult are bit-identical to a
// build without tracing (obs_test locks this in).
//
// When the ring fills, the OLDEST events are overwritten (the tail of a run
// is usually where the interesting pathology is). Spans are stored whole —
// recorded once at span end with their start tick — so eviction can never
// orphan a begin without its end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/engine.h"

namespace mgcomp {

/// Swim-lane convention shared by every traced component: track 0 is the
/// fabric; fabric endpoint e (CPU, GPUs) is track e + 1.
inline constexpr std::uint32_t kFabricTrack = 0;
[[nodiscard]] constexpr std::uint32_t endpoint_track(std::uint32_t endpoint) noexcept {
  return endpoint + 1;
}

enum class TraceEventKind : std::uint8_t { kSpan, kInstant, kCounter };

/// One recorded event. POD; `name`/`cat` must point to static storage
/// (string literals or equivalently immortal strings).
struct TraceEvent {
  TraceEventKind kind{TraceEventKind::kInstant};
  const char* name{""};
  const char* cat{""};
  std::uint32_t track{0};
  Tick ts{0};
  Tick dur{0};          ///< spans only
  double value{0.0};    ///< counters only
  std::uint64_t arg{0};  ///< spans/instants: free-form numeric payload
  bool has_arg{false};
};

class Tracer {
 public:
  /// `capacity` bounds the ring (events, not bytes); must be > 0. `engine`
  /// supplies timestamps for the instant()/counter() conveniences.
  Tracer(const Engine& engine, std::size_t capacity);

  [[nodiscard]] Tick now() const noexcept { return engine_->now(); }

  /// Names the swim lane `track` for the exported trace (e.g. "fabric",
  /// "GPU2"). Unnamed tracks export as "track<N>".
  void set_track_name(std::uint32_t track, std::string name);

  /// Records a completed interval [start, end] (end >= start).
  void span(std::uint32_t track, const char* name, const char* cat, Tick start, Tick end);
  void span(std::uint32_t track, const char* name, const char* cat, Tick start, Tick end,
            std::uint64_t arg);

  /// Records a point event at now().
  void instant(std::uint32_t track, const char* name, const char* cat);
  void instant(std::uint32_t track, const char* name, const char* cat, std::uint64_t arg);

  /// Records a counter sample at now(). Exported counter tracks are keyed
  /// by (name, track), so the same name on different tracks stays separate.
  void counter(std::uint32_t track, const char* name, double value);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// Events ever recorded, including ones the ring has since evicted.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ - static_cast<std::uint64_t>(ring_.size());
  }

  /// Renders the surviving events as Chrome trace-event JSON (the
  /// {"traceEvents": [...]} object form), oldest first.
  [[nodiscard]] std::string export_json() const;

 private:
  void push(const TraceEvent& ev);

  const Engine* engine_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_{0};  ///< next overwrite position once the ring is full
  std::uint64_t recorded_{0};
  std::vector<std::string> track_names_;
};

}  // namespace mgcomp
