// Discrete-event simulation kernel.
//
// The whole multi-GPU model is event-driven: components schedule callbacks
// at absolute ticks of the 1 GHz system clock. Events at the same tick run
// in scheduling order (a monotonically increasing sequence number makes the
// heap ordering total and deterministic), which keeps runs bit-reproducible.
//
// Hot-path design: events live in slab-allocated chunks recycled through a
// free list, and the priority queue orders stable Event pointers, so the
// steady state performs zero allocations per event. Callbacks are
// InlineFunction (sim/callback.h), whose inline buffer is sized for the
// largest Message-capturing lambda the RDMA/fabric path schedules.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "sim/callback.h"

namespace mgcomp {

class Engine {
 public:
  using Callback = InlineFunction;

  /// Cancellation state for timer-style events (retransmission timeouts,
  /// watchdogs). Cancel through Engine::cancel(): a cancelled event is
  /// skipped when popped — crucially WITHOUT advancing now(), so a
  /// cancelled timer that nominally outlives the last real event can never
  /// stretch the measured execution time. `gen` guards re-arming: an event
  /// fires only if its token is live AND the token generation still matches
  /// the one it was armed under, so re-arming a cancelled token can never
  /// resurrect the older cancelled events that share it. `armed` counts
  /// live events currently carrying this token (live-event accounting).
  struct CancelState {
    std::uint64_t gen{0};
    std::uint32_t armed{0};
    bool live{true};
  };
  using CancelToken = std::shared_ptr<CancelState>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Schedules `cb` to run at absolute tick `t` (must be >= now()).
  void schedule_at(Tick t, Callback cb) {
    MGCOMP_CHECK_MSG(t >= now_, "cannot schedule into the past");
    push_event(t, std::move(cb), nullptr, 0);
  }

  /// Schedules `cb` to run `dt` ticks from now.
  void schedule_in(Tick dt, Callback cb) { schedule_at(now_ + dt, std::move(cb)); }

  /// Like schedule_at, but returns a CancelToken (or re-arms `token` when
  /// one is passed in, letting periodic events share a single handle). A
  /// token that was cancelled is reset live on re-arm — and its generation
  /// bumped, so events armed before the cancellation stay dead.
  CancelToken schedule_cancellable_at(Tick t, Callback cb, CancelToken token = nullptr) {
    MGCOMP_CHECK_MSG(t >= now_, "cannot schedule into the past");
    rearm(token);
    push_event(t, std::move(cb), token, token->gen);
    return token;
  }
  CancelToken schedule_cancellable_in(Tick dt, Callback cb, CancelToken token = nullptr) {
    return schedule_cancellable_at(now_ + dt, std::move(cb), std::move(token));
  }

  /// Cancels every event armed under `token`'s current generation. Safe to
  /// call with a null or already-cancelled token.
  void cancel(const CancelToken& token) noexcept {
    if (!token || !token->live) return;
    token->live = false;
    live_ -= static_cast<std::int64_t>(token->armed);
    token->armed = 0;
  }

  /// Current simulation time.
  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Live pending events: cancelled events are subtracted the moment
  /// cancel() runs (not when their dead heap slot is eventually popped), so
  /// drain checks and watchdog stall dumps see true queue depth.
  [[nodiscard]] std::size_t pending() const noexcept {
    return live_ > 0 ? static_cast<std::size_t>(live_) : 0;
  }

  /// Raw heap occupancy, cancelled-but-unpopped slots included
  /// (diagnostics; pending() is the meaningful depth).
  [[nodiscard]] std::size_t queued() const noexcept { return heap_.size(); }

  /// Callbacks actually invoked so far (cancelled events excluded). The
  /// schedule is deterministic, so for a fixed config this is a
  /// machine-independent measure of simulation work — the denominator of
  /// the events/sec throughput metric.
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Pops one event; returns false if the heap is empty. A cancelled event
  /// is discarded without running and without touching now() — the return
  /// value still reports "made progress" so run()/run_until() loops drain
  /// naturally.
  bool step() {
    if (heap_.empty()) return false;
    Event* ev = heap_.top();
    heap_.pop();
    if (stale(ev)) {
      release(ev);
      return true;
    }
    now_ = ev->at;
    if (ev->token) --ev->token->armed;
    --live_;
    // Move the callback out and recycle the slot *before* invoking: the
    // callback may schedule events, and handing the slot back first lets
    // the commonest pattern (one event schedules its successor) run
    // entirely within one slab slot.
    Callback fn = std::move(ev->fn);
    release(ev);
    fn();
    ++executed_;
    return true;
  }

  /// Runs until no events remain. Returns the final tick.
  Tick run() {
    while (step()) {
    }
    return now_;
  }

  /// Runs until `deadline` or queue exhaustion, whichever first. Used by
  /// tests to bound runaway simulations.
  Tick run_until(Tick deadline) {
    while (!heap_.empty() && heap_.top()->at <= deadline) step();
    return now_;
  }

 private:
  struct Event {
    Tick at{0};
    std::uint64_t seq{0};
    Callback fn;
    CancelToken token;       ///< null for plain (non-cancellable) events
    std::uint64_t token_gen{0};  ///< token->gen this event was armed under
  };
  struct Later {
    bool operator()(const Event* a, const Event* b) const noexcept {
      return a->at != b->at ? a->at > b->at : a->seq > b->seq;
    }
  };

  /// Events per slab chunk. Chunks are never freed during a run, so every
  /// Event* stays valid for its heap lifetime.
  static constexpr std::size_t kChunkEvents = 256;

  static void rearm(CancelToken& token) {
    if (!token) {
      token = std::make_shared<CancelState>();
    } else if (!token->live) {
      token->live = true;
      ++token->gen;
      token->armed = 0;
    }
    ++token->armed;
  }

  /// True when the event was cancelled (token dead, or re-armed under a
  /// newer generation) and must be skipped on pop.
  static bool stale(const Event* ev) noexcept {
    return ev->token && (!ev->token->live || ev->token_gen != ev->token->gen);
  }

  void push_event(Tick t, Callback cb, CancelToken token, std::uint64_t gen) {
    Event* ev = acquire();
    ev->at = t;
    ev->seq = seq_++;
    ev->fn = std::move(cb);
    ev->token = std::move(token);
    ev->token_gen = gen;
    heap_.push(ev);
    ++live_;
  }

  Event* acquire() {
    if (free_.empty()) {
      slabs_.push_back(std::make_unique<Event[]>(kChunkEvents));
      Event* chunk = slabs_.back().get();
      free_.reserve(free_.size() + kChunkEvents);
      for (std::size_t i = kChunkEvents; i > 0; --i) free_.push_back(&chunk[i - 1]);
    }
    Event* ev = free_.back();
    free_.pop_back();
    return ev;
  }

  void release(Event* ev) {
    ev->fn.reset();
    ev->token.reset();
    free_.push_back(ev);
  }

  std::priority_queue<Event*, std::vector<Event*>, Later> heap_;
  std::vector<std::unique_ptr<Event[]>> slabs_;
  std::vector<Event*> free_;
  Tick now_{0};
  std::uint64_t seq_{0};
  std::uint64_t executed_{0};
  std::int64_t live_{0};
};

}  // namespace mgcomp
