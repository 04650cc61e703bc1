#include "workload.h"

#include <algorithm>
#include <utility>

namespace perfbench {

Outcome outcome_of(subword::api::ErrorCode code) {
  using subword::api::ErrorCode;
  if (code == ErrorCode::kOverloaded) return Outcome::kShed;
  if (code == ErrorCode::kVerificationFailed) return Outcome::kDivergent;
  return Outcome::kTypedError;
}

void report_engine(Report& r, const subword::runtime::EngineStats& before,
                   const subword::runtime::EngineStats& after) {
  const uint64_t jobs = after.jobs_completed - before.jobs_completed;
  const uint64_t wait_ns = after.queue_wait_ns - before.queue_wait_ns;
  r.set("engine.queue_wait_mean_us",
        jobs == 0 ? 0.0
                  : static_cast<double>(wait_ns) / static_cast<double>(jobs) /
                        1e3);
  r.set("engine.queue_peak_depth", static_cast<double>(after.queue_peak_depth));
  r.set("engine.jobs_completed", static_cast<double>(jobs));
  r.set("engine.jobs_failed",
        static_cast<double>(after.jobs_failed - before.jobs_failed));
  r.set("engine.scratch_allocs",
        static_cast<double>(after.scratch_machine_allocs +
                            after.scratch_arena_allocs));

  const auto& a = after.cache;
  const auto& b = before.cache;
  const uint64_t hits = a.hits - b.hits;
  const uint64_t misses = a.misses - b.misses;
  r.set("cache.hits", static_cast<double>(hits));
  r.set("cache.misses", static_cast<double>(misses));
  r.set("cache.hit_rate",
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses));
  r.set("cache.plan_hits", static_cast<double>(a.plan_hits - b.plan_hits));
  r.set("cache.plan_misses",
        static_cast<double>(a.plan_misses - b.plan_misses));
  r.set("cache.lock_wait_us",
        static_cast<double>(a.lock_wait_ns - b.lock_wait_ns) / 1e3);
  r.set("history.entries", static_cast<double>(a.history_entries));
  r.set("history.invalidations",
        static_cast<double>(a.history_invalidations - b.history_invalidations));
}

std::vector<double> pooled(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> all;
  for (const auto& r : rounds) all.insert(all.end(), r.begin(), r.end());
  return all;
}

void report_latency(Report& r, const std::vector<std::vector<double>>& ms) {
  const std::vector<double> all = pooled(ms);
  const std::pair<const char*, double> pcts[] = {
      {"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90},
      {"latency_p99_ms", 0.99}};
  for (const auto& [name, q] : pcts) {
    std::vector<double> per_round;
    for (const auto& round : ms) {
      if (const auto v = percentile(round, q)) per_round.push_back(*v);
    }
    if (!per_round.empty()) r.set_rounds(name, per_round);
    r.set_percentile(name,
                     !ms.empty() && per_round.size() == ms.size()
                         ? std::optional<double>(median(per_round))
                         : percentile(all, q),
                     all.size());
  }
}

void report_throughput(Report& r, const std::vector<double>& per_round) {
  r.set("throughput_per_s", median(per_round));
  r.set_rounds("throughput_per_s", per_round);
}

size_t round_of(uint64_t t, uint64_t start, uint64_t end, size_t rounds) {
  if (t <= start || end <= start) return 0;
  const auto i = static_cast<size_t>(static_cast<double>(t - start) /
                                     static_cast<double>(end - start) *
                                     static_cast<double>(rounds));
  return std::min(i, rounds - 1);
}

void add_reported_engine_spans(Tracer& tracer, uint64_t lo, uint64_t end,
                               uint64_t prepare_ns, uint64_t execute_ns,
                               const char* execute_name, uint64_t parent,
                               uint64_t request) {
  const uint64_t exec_start = std::max(lo, end - std::min(end, execute_ns));
  const uint64_t prep_start =
      std::max(lo, exec_start - std::min(exec_start, prepare_ns));
  tracer.add("engine.prepare", prep_start, exec_start, parent, request);
  tracer.add(execute_name, exec_start, end, parent, request);
}

void report_trace(Report& r, double untraced_p50, double traced_p50,
                  const std::vector<Span>& spans) {
  r.set("trace.overhead_pct",
        untraced_p50 <= 0 ? 0.0
                          : 100.0 * (traced_p50 - untraced_p50) / untraced_p50);
  r.set("trace.unattributed_pct", unattributed_pct(spans));
}

}  // namespace perfbench
