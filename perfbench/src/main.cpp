// main.cpp — perfbench: the repository benchmark.
//
//   perfbench --workload serve_mixed|frame_pipeline|sim_batch --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//             [--corrupt-expected] [--commit C] [--source-digest D]
//
// Prints a human-readable report (every metric with its unit), a host
// line, a detail line, and, as the last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). While the workload runs, an IdlePoller (host.h) keeps the
// idle CPUs polling. A traced run also prints the per-span self-time table and
// writes the spans as Chrome trace-event JSON to --trace-out. Exits 0 only
// when every checked output matched its host reference.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "host.h"
#include "workload.h"

using namespace perfbench;

namespace {

// CPU steal above this share of the run flags its timings.
constexpr double kStealFlagPct = 5;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_mixed|frame_pipeline|sim_batch --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--corrupt-expected] "
               "[--commit C] [--source-digest D]\n",
               why);
  return 2;
}

void print_self_times(const std::vector<Span>& spans) {
  const auto rows = self_times(spans);
  double total_self = 0;
  for (const auto& r : rows) total_self += r.self_ns;
  std::printf("self time by span (self = duration - time covered by child "
              "spans):\n  %-18s %-10s %8s %12s %12s %7s\n", "span", "layer",
              "spans", "total_ms", "self_ms", "self%");
  for (const auto& r : rows) {
    const std::string layer = r.name.substr(0, r.name.find('.'));
    std::printf("  %-18s %-10s %8llu %12.3f %12.3f %6.1f%%\n", r.name.c_str(),
                layer.c_str(), static_cast<unsigned long long>(r.spans),
                r.total_ns / 1e6, r.self_ns / 1e6,
                total_self == 0 ? 0.0 : 100.0 * r.self_ns / total_self);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_out;
  std::string commit;
  std::string digest;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--corrupt-expected") {
      opt.corrupt_expected = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage(("missing value for " + a).c_str());
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--source-digest") {
      digest = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  opt.nproc = available_cpus();

  WorkloadRun (*workload)(const Options&) = nullptr;
  if (opt.workload == "serve_mixed") {
    workload = run_serve_mixed;
  } else if (opt.workload == "frame_pipeline") {
    workload = run_frame_pipeline;
  } else if (opt.workload == "sim_batch") {
    workload = run_sim_batch;
  } else {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  const CpuTicks ticks_before = cpu_ticks();
  WorkloadRun run;
  {
    const IdlePoller poller(opt.nproc);
    run = workload(opt);
  }
  run.report.set("peak_rss_mb", peak_rss_mb());
  run.report.set("error_rate", run.outcomes.error_rate());

  HostInfo info = host_info(commit, digest);
  info.steal_pct = steal_pct(ticks_before, cpu_ticks());
  if (info.steal_pct > kStealFlagPct) {
    run.report.flag("the hypervisor took " + std::to_string(info.steal_pct) +
                    "% of CPU time from this machine during the run: other "
                    "guests shared the host, so timings are not comparable "
                    "with a quiet run's");
  }
  const std::string host = host_json(info);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              opt.corrupt_expected ? " corrupt-expected" : "");
  std::printf("outcomes: attempted=%llu failed=%llu",
              static_cast<unsigned long long>(run.outcomes.attempted()),
              static_cast<unsigned long long>(run.outcomes.failed()));
  for (size_t i = 1; i < kOutcomeKinds; ++i) {
    std::printf(" %s=%llu", to_string(static_cast<Outcome>(i)),
                static_cast<unsigned long long>(run.outcomes.by[i]));
  }
  std::printf("\n");
  run.report.print(stdout);
  if (opt.trace) {
    print_self_times(run.spans);
    if (!trace_out.empty()) {
      std::ofstream f(trace_out, std::ios::binary);
      f << chrome_trace_json(run.spans);
      if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
        return 1;
      }
      std::printf("trace: %zu spans written to %s\n", run.spans.size(),
                  trace_out.c_str());
    }
  }
  std::printf("host %s\n", host.c_str());
  std::printf("detail %s\n", run.report.detail_json(run.outcomes, host).c_str());

  const bool correct =
      run.outcomes.attempted() > 0 && run.outcomes.failed() == 0;
  std::string missing;
  const std::string result =
      run.report.result_json(opt.trace, correct, run.outcomes, &missing);
  if (!missing.empty()) {
    std::fprintf(stderr, "perfbench: no value for %s\n", missing.c_str());
    return 1;
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
