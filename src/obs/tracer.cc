#include "obs/tracer.h"

#include <cinttypes>
#include <cstdio>

#include "common/assert.h"

namespace mgcomp {
namespace {

/// Minimal JSON string escaping (quotes, backslash, control chars). Names
/// are identifiers in practice, but track names are caller-supplied.
void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Ticks are 1 GHz cycles = nanoseconds; the trace format's `ts`/`dur`
/// unit is microseconds, so one tick is exactly 0.001 — three decimals
/// keep the conversion lossless.
void append_us(std::string& out, Tick ticks) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u",
                static_cast<std::uint64_t>(ticks / 1000),
                static_cast<unsigned>(ticks % 1000));
  out += buf;
}

}  // namespace

Tracer::Tracer(const Engine& engine, std::size_t capacity)
    : engine_(&engine), capacity_(capacity) {
  MGCOMP_CHECK_MSG(capacity > 0, "tracer ring capacity must be positive");
  ring_.reserve(capacity);
}

void Tracer::set_track_name(std::uint32_t track, std::string name) {
  if (track_names_.size() <= track) track_names_.resize(track + 1);
  track_names_[track] = std::move(name);
}

void Tracer::push(const TraceEvent& ev) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    return;
  }
  ring_[head_] = ev;
  head_ = (head_ + 1) % capacity_;
}

void Tracer::span(std::uint32_t track, const char* name, const char* cat, Tick start,
                  Tick end) {
  MGCOMP_CHECK_MSG(end >= start, "span ends before it starts");
  TraceEvent ev;
  ev.kind = TraceEventKind::kSpan;
  ev.name = name;
  ev.cat = cat;
  ev.track = track;
  ev.ts = start;
  ev.dur = end - start;
  push(ev);
}

void Tracer::span(std::uint32_t track, const char* name, const char* cat, Tick start,
                  Tick end, std::uint64_t arg) {
  MGCOMP_CHECK_MSG(end >= start, "span ends before it starts");
  TraceEvent ev;
  ev.kind = TraceEventKind::kSpan;
  ev.name = name;
  ev.cat = cat;
  ev.track = track;
  ev.ts = start;
  ev.dur = end - start;
  ev.arg = arg;
  ev.has_arg = true;
  push(ev);
}

void Tracer::instant(std::uint32_t track, const char* name, const char* cat) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kInstant;
  ev.name = name;
  ev.cat = cat;
  ev.track = track;
  ev.ts = engine_->now();
  push(ev);
}

void Tracer::instant(std::uint32_t track, const char* name, const char* cat,
                     std::uint64_t arg) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kInstant;
  ev.name = name;
  ev.cat = cat;
  ev.track = track;
  ev.ts = engine_->now();
  ev.arg = arg;
  ev.has_arg = true;
  push(ev);
}

void Tracer::counter(std::uint32_t track, const char* name, double value) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kCounter;
  ev.name = name;
  ev.track = track;
  ev.ts = engine_->now();
  ev.value = value;
  push(ev);
}

std::string Tracer::export_json() const {
  std::string out;
  out.reserve(ring_.size() * 120 + 1024);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";

  auto track_label = [this](std::uint32_t track, std::string& into) {
    if (track < track_names_.size() && !track_names_[track].empty()) {
      append_escaped(into, track_names_[track].c_str());
    } else {
      into += "track" + std::to_string(track);
    }
  };

  // Metadata: name every track so Perfetto shows swim-lane labels instead
  // of bare thread ids.
  bool first = true;
  std::uint32_t max_track = static_cast<std::uint32_t>(track_names_.size());
  for (const TraceEvent& ev : ring_) {
    if (ev.track + 1 > max_track) max_track = ev.track + 1;
  }
  for (std::uint32_t t = 0; t < max_track; ++t) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(t) +
           ",\"args\":{\"name\":\"";
    track_label(t, out);
    out += "\"}}";
  }

  // Events, oldest first (the ring overwrites at head_, so head_ is the
  // oldest surviving event once the buffer has wrapped).
  const std::size_t n = ring_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& ev = ring_[(head_ + i) % n];
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, ev.name);
    if (ev.kind == TraceEventKind::kCounter) {
      // Counter tracks are keyed by (pid, name); suffix the track label so
      // per-endpoint samples of the same metric stay separate.
      out += '/';
      track_label(ev.track, out);
      out += "\",\"ph\":\"C\",\"pid\":0,\"tid\":" + std::to_string(ev.track) + ",\"ts\":";
      append_us(out, ev.ts);
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.6g", ev.value);
      out += ",\"args\":{\"value\":";
      out += buf;
      out += "}}";
      continue;
    }
    out += "\",\"cat\":\"";
    append_escaped(out, ev.cat);
    out += "\",\"ph\":\"";
    out += ev.kind == TraceEventKind::kSpan ? 'X' : 'i';
    out += "\",\"pid\":0,\"tid\":" + std::to_string(ev.track) + ",\"ts\":";
    append_us(out, ev.ts);
    if (ev.kind == TraceEventKind::kSpan) {
      out += ",\"dur\":";
      append_us(out, ev.dur);
    } else {
      out += ",\"s\":\"t\"";
    }
    if (ev.has_arg) {
      out += ",\"args\":{\"v\":" + std::to_string(ev.arg) + "}";
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace mgcomp
