#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string_view Span::layer() const {
  const std::string_view n(name);
  return n.substr(0, n.find('.'));
}

namespace {

uint32_t thread_index() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid = next.fetch_add(1);
  return tid;
}

}  // namespace

uint64_t Tracer::new_id() {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

uint64_t Tracer::add(std::string_view name, uint64_t start_ns,
                     uint64_t end_ns, uint64_t parent, uint64_t request,
                     uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = new_id();
  Span s{std::string(name), id, parent, request, start_ns, end_ns,
         thread_index()};
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(s));
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<double> span_self_ns(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Children's intervals, grouped under their parent's position.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }

  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0;
    uint64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = static_cast<double>(p.duration() - std::min(covered, p.duration()));
  }
  return self;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  const auto self = span_self_ns(spans);
  std::map<std::string, SelfTime> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = by_name[spans[i].name];
    t.name = spans[i].name;
    ++t.spans;
    t.total_ns += static_cast<double>(spans[i].duration());
    t.self_ns += self[i];
  }
  std::vector<SelfTime> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  std::stable_sort(out.begin(), out.end(),
                   [](const SelfTime& a, const SelfTime& b) {
                     return a.self_ns > b.self_ns;
                   });
  return out;
}

double unattributed_pct(const std::vector<Span>& spans) {
  const auto self = span_self_ns(spans);
  double root_total = 0;
  double root_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) continue;
    root_total += static_cast<double>(spans[i].duration());
    root_self += self[i];
  }
  return root_total == 0 ? 0.0 : 100.0 * root_self / root_total;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (const Span& s : spans) {
    const std::string layer(s.layer());
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                  first ? "" : ",", s.name.c_str(), layer.c_str(),
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.duration()) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
