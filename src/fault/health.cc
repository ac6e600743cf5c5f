#include "fault/health.h"

#include <cstdio>

#include "fault/episodes.h"
#include "obs/tracer.h"

namespace mgcomp {

HealthMonitor::HealthMonitor(Engine& engine, std::uint32_t num_endpoints, HealthParams params,
                             const EpisodeScheduler* oracle)
    : engine_(&engine),
      n_(num_endpoints),
      params_(params),
      oracle_(oracle),
      links_(static_cast<std::size_t>(num_endpoints) * num_endpoints),
      gpus_(num_endpoints) {}

bool HealthMonitor::wire_dead(EndpointId a, EndpointId b) const noexcept {
  return oracle_ != nullptr && oracle_->wire_dead(a, b);
}

bool HealthMonitor::endpoint_dead(EndpointId e) const noexcept {
  return oracle_ != nullptr && oracle_->endpoint_dead(e);
}

void HealthMonitor::notify() {
  if (on_change_) on_change_();
}

void HealthMonitor::link_instant(const char* name, std::size_t idx) {
  if (tracer_ != nullptr) tracer_->instant(kFabricTrack, name, "health", idx);
}

void HealthMonitor::emit_links_down_counter() {
  if (tracer_ != nullptr) tracer_->counter(kFabricTrack, "links_down", links_down_now_);
}

void HealthMonitor::enter_down(std::size_t idx) {
  LinkHealth& l = links_[idx];
  l.state = HealthState::kDown;
  l.errors = 0;
  l.successes = 0;
  l.probes_left = params_.probe_budget;
  ++l.epoch;
  ++stats_.link_down;
  ++links_down_now_;
  link_instant("link_down", idx);
  emit_links_down_counter();
  schedule_probe(idx);
  notify();
}

void HealthMonitor::enter_recovered(std::size_t idx) {
  LinkHealth& l = links_[idx];
  l.state = HealthState::kRecovered;
  l.errors = 0;
  l.successes = 0;
  ++l.epoch;  // cancel any probe chain still in flight
  ++stats_.link_recovered;
  --links_down_now_;
  link_instant("link_recovered", idx);
  emit_links_down_counter();
  notify();
}

void HealthMonitor::on_link_error(EndpointId a, EndpointId b) {
  const std::size_t idx = pair(a, b);
  LinkHealth& l = links_[idx];
  if (l.state == HealthState::kDown) return;
  l.successes = 0;
  ++l.errors;
  if (l.state == HealthState::kRecovered) {  // relapse: no hysteresis on the way back down
    enter_down(idx);
    return;
  }
  if (l.state == HealthState::kUp && l.errors >= params_.suspect_after) {
    l.state = HealthState::kSuspect;
    ++stats_.link_suspect;
    link_instant("link_suspect", idx);
  }
  if (l.state == HealthState::kSuspect && l.errors >= params_.down_after) enter_down(idx);
}

void HealthMonitor::on_link_success(EndpointId a, EndpointId b) {
  const std::size_t idx = pair(a, b);
  LinkHealth& l = links_[idx];
  l.errors = 0;
  switch (l.state) {
    case HealthState::kUp: break;
    case HealthState::kSuspect:
      l.state = HealthState::kUp;
      ++stats_.link_up;
      link_instant("link_up", idx);
      break;
    case HealthState::kDown:
      // A completed transfer while believed-DOWN is not proof the direct
      // wire healed: on the port-based fabric it may have detoured around it,
      // and crediting the detour would flip the link back to believed-up
      // while the wire is still dead (and every direct send then burns a
      // retry). Treat the success as a free probe instead: recover only
      // when the wire itself answers — which covers the genuine case of a
      // stalled message draining right after a flap window closes.
      if (!wire_dead(a, b) && !endpoint_dead(a) && !endpoint_dead(b)) enter_recovered(idx);
      break;
    case HealthState::kRecovered:
      if (++l.successes >= params_.up_after) {
        l.state = HealthState::kUp;
        ++stats_.link_up;
        link_instant("link_up", idx);
      }
      break;
  }
}

void HealthMonitor::schedule_probe(std::size_t idx) {
  LinkHealth& l = links_[idx];
  if (l.probes_left == 0) return;  // budget exhausted: DOWN is now final
  --l.probes_left;
  engine_->schedule_in(params_.probe_interval,
                       [this, idx, epoch = l.epoch] { probe(idx, epoch); });
}

void HealthMonitor::probe(std::size_t idx, std::uint64_t epoch) {
  LinkHealth& l = links_[idx];
  if (l.state != HealthState::kDown || l.epoch != epoch) return;
  ++stats_.probes_sent;
  link_instant("health_probe", idx);
  const EndpointId a{static_cast<std::uint32_t>(idx / n_)};
  const EndpointId b{static_cast<std::uint32_t>(idx % n_)};
  const bool alive = !wire_dead(a, b) && !endpoint_dead(a) && !endpoint_dead(b);
  if (alive) {
    enter_recovered(idx);
    return;
  }
  schedule_probe(idx);
}

void HealthMonitor::on_gpu_failstop(EndpointId e) {
  if (gpus_[e.value].state != HealthState::kUp) return;
  for (std::uint32_t miss = 1; miss <= params_.heartbeat_misses; ++miss) {
    engine_->schedule_in(params_.heartbeat_interval * miss, [this, e, miss] {
      GpuHealth& g = gpus_[e.value];
      if (g.state == HealthState::kDown) return;
      ++stats_.heartbeat_misses;
      if (tracer_ != nullptr) {
        tracer_->instant(endpoint_track(e.value), "heartbeat_miss", "health", miss);
      }
      if (miss == 1 && g.state == HealthState::kUp) {
        g.state = HealthState::kSuspect;
        ++stats_.gpu_suspect;
      }
      if (miss >= params_.heartbeat_misses) {
        g.state = HealthState::kDown;
        ++stats_.gpu_down;
        if (tracer_ != nullptr) tracer_->instant(endpoint_track(e.value), "gpu_down", "health");
        notify();
      }
    });
  }
}

std::string HealthMonitor::dump() const {
  std::string out = "health:\n";
  char buf[128];
  bool any = false;
  for (std::uint32_t lo = 0; lo < n_; ++lo) {
    for (std::uint32_t hi = lo + 1; hi < n_; ++hi) {
      const EndpointId a{lo};
      const EndpointId b{hi};
      const LinkHealth& l = links_[pair(a, b)];
      const bool dead = wire_dead(a, b);
      if (l.state == HealthState::kUp && !dead) continue;
      any = true;
      std::snprintf(buf, sizeof buf, "  link EP%u-EP%u %s wire=%s errors=%u probes_left=%u\n",
                    lo, hi, to_string(l.state), dead ? "dead" : "alive", l.errors,
                    l.probes_left);
      out += buf;
    }
  }
  for (std::uint32_t e = 0; e < n_; ++e) {
    const GpuHealth& g = gpus_[e];
    const bool dead = endpoint_dead(EndpointId{e});
    if (g.state == HealthState::kUp && !dead) continue;
    any = true;
    std::snprintf(buf, sizeof buf, "  endpoint EP%u %s oracle=%s\n", e, to_string(g.state),
                  dead ? "dead" : "alive");
    out += buf;
  }
  if (!any) out += "  all links and endpoints UP\n";
  return out;
}

}  // namespace mgcomp
