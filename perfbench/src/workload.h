// workload.h — what every workload shares: its options, its result, and
// the helpers that turn samples and engine counters into metrics.
//
// Each workload runs in four parts:
//   1. inputs and host-side references are generated from the seed
//      (untimed, and excluded from set-up time);
//   2. a warm-up of kWarmupSeconds runs the workload untimed on a first
//      set-up, so neither the set-up timings nor the measured phase start
//      on idle CPUs;
//   3. the system under test is set up several times from scratch (fresh
//      server or session, fresh cache) and setup_s is the median; the
//      last set-up is the one measured;
//   4. the measured phase runs for --seconds, split into kRounds rounds.
//      A latency percentile is the median of the rounds' percentiles and
//      throughput the median of the rounds' rates, so a burst of
//      interference from outside spoils one round, not the result.
// A traced run measures half the time untraced and half traced, and
// reports the difference as trace.overhead_pct; per-layer probes run
// after it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/result.h"
#include "metrics.h"
#include "runtime/batch_engine.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

inline constexpr double kWarmupSeconds = 2;
inline constexpr int kRounds = 5;
// Engine workers per workload, at most. The host is shared: every thread
// past a couple measures the scheduler and the hypervisor more than the
// program, and each allocating thread takes its own glibc arena, which
// made peak_rss_mb bimodal across runs.
inline constexpr int kMaxWorkers = 2;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  // Flip one byte of one expected reference output. The program is not
  // touched; the run must then report failures and exit non-zero.
  bool corrupt_expected = false;
  int nproc = 1;
};

struct WorkloadRun {
  Report report;
  OutcomeCounts outcomes;
  std::vector<Span> spans;  // traced runs only
};

[[nodiscard]] WorkloadRun run_serve_mixed(const Options& opt);
[[nodiscard]] WorkloadRun run_frame_pipeline(const Options& opt);
[[nodiscard]] WorkloadRun run_sim_batch(const Options& opt);

// The service layer, probed for workloads that do not drive it: a fresh
// in-process server (one worker) and one connection replay the serve_mixed
// request pool sequentially for the service.* round-trip metrics, and the
// protocol codec and the planner are timed on the pool's requests. Fills
// service.* and planner.plan_us.
void probe_service(const Options& opt, Report& r, OutcomeCounts& out);

// How a typed api error counts: shed for admission-control refusals,
// divergent for verification failures, a typed error otherwise.
[[nodiscard]] Outcome outcome_of(subword::api::ErrorCode code);

// Engine and cache metrics over a measured window: counters as the
// difference between two snapshots, levels (peak depth, allocations,
// history entries) as of the second.
void report_engine(Report& r, const subword::runtime::EngineStats& before,
                   const subword::runtime::EngineStats& after);

// latency_p50_ms / latency_p90_ms / latency_p99_ms from per-round samples.
// Each is the median of the rounds' percentiles when every round has ten
// samples beyond it, else the percentile of all rounds pooled (same rule).
void report_latency(Report& r, const std::vector<std::vector<double>>& ms);

// throughput_per_s: the median of the rounds' rates.
void report_throughput(Report& r, const std::vector<double>& per_round);

// The round (0..rounds-1) an event at `t` falls in when [start, end) is cut
// into `rounds` equal windows.
[[nodiscard]] size_t round_of(uint64_t t, uint64_t start, uint64_t end,
                              size_t rounds);

// All rounds' samples in one vector.
[[nodiscard]] std::vector<double> pooled(
    const std::vector<std::vector<double>>& rounds);

// Spans for the engine time a call reports (prepare_ns, execute_ns) but
// does not place: the program records no start times, so they are laid at
// the end of the blocked call [lo, end) — "engine.prepare" then
// `execute_name` — as children of `parent`.
void add_reported_engine_spans(Tracer& tracer, uint64_t lo, uint64_t end,
                               uint64_t prepare_ns, uint64_t execute_ns,
                               const char* execute_name, uint64_t parent,
                               uint64_t request);

// trace.overhead_pct from the untraced and traced halves' p50 latencies,
// and trace.unattributed_pct from the spans.
void report_trace(Report& r, double untraced_p50, double traced_p50,
                  const std::vector<Span>& spans);

}  // namespace perfbench
