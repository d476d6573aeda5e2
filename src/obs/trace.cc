#include "obs/trace.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "obs/json.h"

namespace ironsafe::obs {

namespace {

thread_local Tracer* tls_tracer = nullptr;

/// Integer nanoseconds rendered as decimal microseconds ("12.345"):
/// Chrome's ts/dur unit with no floating-point round-trip, so the text
/// is a deterministic function of the simulated value.
std::string NsAsUsString(sim::SimNanos ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  return buf;
}

}  // namespace

Tracer* CurrentTracer() { return tls_tracer; }
void SetCurrentTracer(Tracer* tracer) { tls_tracer = tracer; }

// Wall-clock fields feed only the opt-in --trace-wall lane and are
// excluded from the default deterministic export (see Span docs).
Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()) {}  // ironsafe-lint: allow(determinism)

int64_t Tracer::WallNowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             // ironsafe-lint: allow(determinism) — opt-in wall lane only
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t Tracer::OpenSpan(std::string_view name, std::string_view category,
                         const sim::CostModel* cost) {
  int64_t wall = WallNowUs();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.name = std::string(name);
  span.category = std::string(category);
  span.depth = static_cast<int>(open_.size());
  span.wall_start_us = wall;

  OpenState state;
  state.id = span.id;
  state.has_model = cost != nullptr;
  state.raw_open = cost != nullptr ? cost->elapsed_ns() : 0;
  if (open_.empty()) {
    span.parent = -1;
    state.start = root_cursor_;
  } else {
    span.parent = open_.back().id;
    state.start = open_.back().cursor;
  }
  state.cursor = state.start;
  span.sim_start_ns = state.start;
  span.sim_end_ns = state.start;  // patched at close

  spans_.push_back(std::move(span));
  open_.push_back(state);
  return state.id;
}

void Tracer::CloseSpan(int64_t id, const sim::CostModel* cost) {
  int64_t wall = WallNowUs();
  std::lock_guard<std::mutex> lock(mu_);
  assert(!open_.empty() && open_.back().id == id &&
         "CloseSpan out of nesting order");
  if (open_.empty() || open_.back().id != id) return;
  OpenState state = open_.back();
  open_.pop_back();

  sim::SimNanos raw_delta = 0;
  if (state.has_model && cost != nullptr) {
    sim::SimNanos now = cost->elapsed_ns();
    raw_delta = now >= state.raw_open ? now - state.raw_open : 0;
  }
  sim::SimNanos end = std::max(state.start + raw_delta, state.cursor);

  Span& span = spans_[static_cast<size_t>(id)];
  span.sim_end_ns = end;
  span.wall_end_us = wall;

  if (open_.empty()) {
    root_cursor_ = std::max(root_cursor_, end);
  } else {
    open_.back().cursor = std::max(open_.back().cursor, end);
  }
}

void Tracer::AddTag(int64_t id, std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= spans_.size()) return;
  spans_[static_cast<size_t>(id)].tags.emplace_back(std::string(key),
                                                    std::string(value));
}

void Tracer::AddTag(int64_t id, std::string_view key, int64_t value) {
  AddTag(id, key, std::string_view(std::to_string(value)));
}

int64_t Tracer::AddDetailSpan(std::string_view name, std::string_view category,
                              sim::SimNanos sim_dur_ns, int lane,
                              int64_t wall_start_us, int64_t wall_end_us) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.name = std::string(name);
  span.category = std::string(category);
  span.detail = true;
  span.lane = lane;
  span.wall_start_us = wall_start_us;
  span.wall_end_us = wall_end_us;
  if (open_.empty()) {
    span.parent = -1;
    span.depth = 0;
    span.sim_start_ns = root_cursor_;
  } else {
    span.parent = open_.back().id;
    span.depth = static_cast<int>(open_.size());
    span.sim_start_ns = open_.back().cursor;
  }
  span.sim_end_ns = span.sim_start_ns + sim_dur_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t Tracer::AddTimelineSpan(std::string_view name,
                                std::string_view category,
                                sim::SimNanos sim_start_ns,
                                sim::SimNanos sim_end_ns, int lane) {
  int64_t wall = WallNowUs();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.name = std::string(name);
  span.category = std::string(category);
  span.detail = true;
  span.lane = lane;
  span.wall_start_us = wall;
  span.wall_end_us = wall;
  // Explicit placement: the caller owns the timeline (an event queue),
  // so no cursor is consulted or advanced. Parentage still records the
  // innermost open span for tree readers.
  span.parent = open_.empty() ? -1 : open_.back().id;
  span.depth = static_cast<int>(open_.size());
  span.sim_start_ns = sim_start_ns;
  span.sim_end_ns = sim_end_ns < sim_start_ns ? sim_start_ns : sim_end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Graft(const Tracer& part) {
  assert(&part != this && "a tracer cannot graft itself");
  std::scoped_lock lock(mu_, part.mu_);
  assert(part.open_.empty() && "Graft of a tracer with open spans");
  const int64_t base = static_cast<int64_t>(spans_.size());
  const int64_t parent = open_.empty() ? -1 : open_.back().id;
  const int depth = static_cast<int>(open_.size());
  sim::SimNanos& cursor = open_.empty() ? root_cursor_ : open_.back().cursor;
  const sim::SimNanos offset = cursor;
  const int64_t wall_shift =
      std::chrono::duration_cast<std::chrono::microseconds>(part.epoch_ -
                                                            epoch_)
          .count();
  for (const Span& s : part.spans_) {
    Span span = s;
    span.id += base;
    span.parent = s.parent < 0 ? parent : s.parent + base;
    span.depth += depth;
    span.sim_start_ns += offset;
    span.sim_end_ns += offset;
    span.wall_start_us += wall_shift;
    span.wall_end_us += wall_shift;
    spans_.push_back(std::move(span));
  }
  cursor = std::max(cursor, offset + part.root_cursor_);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

size_t Tracer::open_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  open_.clear();
  root_cursor_ = 0;
}

void Tracer::ExportChromeTrace(std::ostream& out,
                               const ExportOptions& opts) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Internal ids count every recorded span, including detail spans whose
  // number depends on the real worker count. Renumber over the spans
  // actually exported so the default (no-detail) trace is identical
  // regardless of parallelism.
  std::vector<int64_t> exported_id(spans_.size(), -1);
  int64_t next_id = 0;
  for (const Span& span : spans_) {
    if (span.detail && !opts.include_detail) continue;
    exported_id[static_cast<size_t>(span.id)] = next_id++;
  }
  auto remap = [&](int64_t id) {
    return id < 0 ? id : exported_id[static_cast<size_t>(id)];
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    if (span.detail && !opts.include_detail) continue;
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":" << JsonQuote(span.name)
        << ",\"cat\":" << JsonQuote(span.category) << ",\"ph\":\"X\""
        << ",\"ts\":" << NsAsUsString(span.sim_start_ns)
        << ",\"dur\":" << NsAsUsString(span.sim_duration_ns())
        << ",\"pid\":1,\"tid\":" << (span.detail ? span.lane + 1 : 0)
        << ",\"args\":{\"id\":" << remap(span.id)
        << ",\"parent\":" << remap(span.parent);
    if (span.detail) out << ",\"detail\":true";
    for (const auto& [key, value] : span.tags) {
      out << "," << JsonQuote(key) << ":" << JsonQuote(value);
    }
    if (opts.include_wall) {
      out << ",\"wall_start_us\":" << span.wall_start_us
          << ",\"wall_dur_us\":" << (span.wall_end_us - span.wall_start_us);
    }
    out << "}}";
  }
  out << "\n]";
  if (opts.metrics != nullptr) {
    out << ",\"counters\":{";
    bool first_metric = true;
    for (const auto& [name, value] : opts.metrics->Snapshot()) {
      if (!first_metric) out << ",";
      first_metric = false;
      out << "\n" << JsonQuote(name) << ":" << value;
    }
    out << "\n}";
  }
  out << "}\n";
}

Status Tracer::WriteChromeTrace(const std::string& path,
                                const ExportOptions& opts) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open trace file: " + path);
  ExportChromeTrace(out, opts);
  out.flush();
  if (!out) return Status::Internal("short write to trace file: " + path);
  return Status::OK();
}

void Tracer::ExportTree(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    for (int i = 0; i < span.depth; ++i) out << "  ";
    out << span.name << "  " << NsAsUsString(span.sim_duration_ns()) << " us";
    if (span.detail) out << "  [detail lane " << span.lane << "]";
    for (const auto& [key, value] : span.tags) {
      out << "  " << key << "=" << value;
    }
    out << "\n";
  }
}

}  // namespace ironsafe::obs
