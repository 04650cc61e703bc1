// trace.h — in-memory spans recorded around the benchmark's calls into each
// layer, their self-time accounting, and the Chrome trace-event writer.
//
// A span has a name ("<layer>.<what>"), a start and end on the steady
// clock, the span that caused it (0: a root) and a request id shared by
// every span of one request. Spans stay in memory until the run ends; the
// writer emits them as Chrome trace-event JSON ("X" complete events),
// which chrome://tracing and Perfetto open directly.
//
// Self time of a span is its duration minus the part of its interval that
// its child spans cover. Children may run on other threads and may overlap
// each other; their intervals are clipped to the parent and merged, so an
// overlapped instant is subtracted once.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Steady-clock nanoseconds (the one clock every span and timer uses).
[[nodiscard]] uint64_t now_ns();

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: root span
  uint64_t request = 0;  // shared by every span of one request
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t tid = 0;      // small per-thread index, for the trace viewer

  [[nodiscard]] uint64_t duration() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
  // The layer a span belongs to: its name up to the first '.'.
  [[nodiscard]] std::string_view layer() const;
};

// Thread-safe span sink. A disabled tracer records nothing and hands out
// id 0, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Reserve an id for a span whose children are recorded before it ends.
  [[nodiscard]] uint64_t new_id();

  // Record one finished span. `id` 0 allocates a fresh one. Returns the id.
  uint64_t add(std::string_view name, uint64_t start_ns, uint64_t end_ns,
               uint64_t parent, uint64_t request, uint64_t id = 0);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Self time aggregated by span name.
struct SelfTime {
  std::string name;
  uint64_t spans = 0;
  double total_ns = 0;
  double self_ns = 0;
};

// Per-span self times (same order as `spans`).
[[nodiscard]] std::vector<double> span_self_ns(const std::vector<Span>& spans);

// Aggregated by name, largest self time first.
[[nodiscard]] std::vector<SelfTime> self_times(const std::vector<Span>& spans);

// Share (percent) of the root spans' total duration that no child span
// covers: end-to-end time the layer spans do not explain.
[[nodiscard]] double unattributed_pct(const std::vector<Span>& spans);

// Chrome trace-event JSON for `spans` (timestamps in microseconds,
// relative to the earliest span).
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
