#include "metrics.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // service: wire round trips, server overhead, protocol codec.
      {"service.rtt_p50_us", "us"},
      {"service.rtt_p99_us", "us"},
      {"service.overhead_p50_us", "us"},
      {"service.overhead_p99_us", "us"},
      {"service.encode_request_us", "us"},
      {"service.decode_request_us", "us"},
      {"service.encode_response_us", "us"},
      {"service.decode_response_us", "us"},
      {"service.shed", "count"},
      {"service.protocol_errors", "count"},
      // api: the facade's terminal operations.
      {"api.build_us", "us"},
      {"api.submit_us", "us"},
      {"api.wait_us", "us"},
      // runtime/batch_engine.
      {"engine.queue_wait_mean_us", "us"},
      {"engine.queue_peak_depth", "count"},
      {"engine.jobs_completed", "count"},
      {"engine.jobs_failed", "count"},
      {"engine.scratch_allocs", "count"},
      // runtime/orchestration_cache, history, planner.
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_rate", "ratio"},
      {"cache.plan_hits", "count"},
      {"cache.plan_misses", "count"},
      {"cache.lock_wait_us", "us"},
      {"history.entries", "count"},
      {"history.invalidations", "count"},
      {"planner.plan_us", "us"},
      // runtime/tiling and api/pipeline.
      {"tiling.tiles_per_frame", "count"},
      {"tiling.workers_used", "count"},
      {"tiling.parallelism", "ratio"},
      // backend + kernels: native execute phases on sampled work.
      {"native.execute_us", "us"},
      {"native.arena_clear_us", "us"},
      {"native.init_us", "us"},
      {"native.bind_us", "us"},
      {"native.trace_us", "us"},
      {"native.verify_us", "us"},
      {"native.copyback_us", "us"},
      {"native.trace_ops", "count"},
      {"native.ns_per_op", "ns"},
      // core + backend: the prepare half.
      {"prepare.build_us", "us"},
      {"prepare.orchestrate_us", "us"},
      {"prepare.lower_us", "us"},
      {"prepare.miss_p50_us", "us"},
      // sim + core (SPU): host time, then modelled counts.
      {"sim.execute_ms", "ms"},
      {"sim.host_ns_per_cycle", "ns"},
      {"sim.mcycles_per_s", "Mcycles/s"},
      {"sim.cycles", "count"},
      {"sim.instructions", "count"},
      {"sim.ipc", "ratio"},
      {"sim.stall_cycles", "count"},
      {"sim.mmx_busy_fraction", "ratio"},
      {"sim.branch_mispredicts", "count"},
      {"sim.permutation_instructions", "count"},
      {"spu.routed_ops", "count"},
      {"spu.mmio_stores", "count"},
      // The benchmark's own tracing.
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_pct", "%"},
  };
  return defs;
}

const std::vector<MetricDef>& workload_metrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_p90_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"sim_cycles", "count"},
      {"sim_mcycles_per_s", "Mcycles/s"},
      {"error_rate", "ratio"},
      // serve_mixed's open-loop load generator.
      {"loadgen.offered_rps", "1/s"},
      {"loadgen.late_p99_us", "us"},
  };
  return defs;
}

const char* unit_of(const std::string& name) {
  for (const auto* list :
       {&end_to_end_metrics(), &per_layer_metrics(), &workload_metrics()}) {
    for (const MetricDef& d : *list) {
      if (name == d.name) return d.unit;
    }
  }
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Report::set(const std::string& name, double value) {
  if (unit_of(name) == nullptr) {
    std::fprintf(stderr, "perfbench: uncatalogued metric '%s'\n",
                 name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void Report::set_percentile(const std::string& name,
                            std::optional<double> value, size_t samples) {
  samples_[name] = samples;
  if (value.has_value()) {
    set(name, *value);
  } else {
    withheld_.push_back(name);
  }
}

std::optional<double> Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void Report::print(std::FILE* out) const {
  auto list = [&](const char* title, const std::vector<MetricDef>& defs) {
    bool header = false;
    for (const MetricDef& d : defs) {
      const auto v = get(d.name);
      const bool withheld = std::find(withheld_.begin(), withheld_.end(),
                                      d.name) != withheld_.end();
      if (!v.has_value() && !withheld) continue;
      if (!header) {
        std::fprintf(out, "%s\n", title);
        header = true;
      }
      const auto n = samples_.find(d.name);
      if (v.has_value()) {
        std::fprintf(out, "  %-32s %16.6g %-10s", d.name, *v, d.unit);
      } else {
        std::fprintf(out, "  %-32s %16s %-10s", d.name, "withheld", d.unit);
      }
      if (n != samples_.end()) std::fprintf(out, " (n=%zu)", n->second);
      const auto rounds = rounds_.find(d.name);
      if (rounds != rounds_.end()) {
        std::fprintf(out, " rounds:");
        for (double x : rounds->second) std::fprintf(out, " %.4g", x);
      }
      std::fprintf(out, "\n");
    }
  };
  list("end-to-end:", end_to_end_metrics());
  list("workload:", workload_metrics());
  list("per-layer:", per_layer_metrics());
  for (const auto& f : flags_) std::fprintf(out, "FLAG: %s\n", f.c_str());
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

std::string Report::detail_json(const OutcomeCounts& outcomes,
                                const std::string& host_json) const {
  std::string out = "{\"host\":" + host_json + ",\"outcomes\":{";
  for (size_t i = 0; i < kOutcomeKinds; ++i) {
    if (i != 0) out += ",";
    out += quoted(to_string(static_cast<Outcome>(i))) + ":" +
           std::to_string(outcomes.by[i]);
  }
  out += "},\"values\":{";
  bool first = true;
  for (const auto& [name, v] : values_) {
    if (!first) out += ",";
    out += quoted(name) + ":" + json_number(v);
    first = false;
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [name, n] : samples_) {
    if (!first) out += ",";
    out += quoted(name) + ":" + std::to_string(n);
    first = false;
  }
  out += "},\"rounds\":{";
  first = true;
  for (const auto& [name, v] : rounds_) {
    if (!first) out += ",";
    out += quoted(name) + ":[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out += ",";
      out += json_number(v[i]);
    }
    out += "]";
    first = false;
  }
  out += "},\"withheld\":[";
  for (size_t i = 0; i < withheld_.size(); ++i) {
    if (i != 0) out += ",";
    out += quoted(withheld_[i]);
  }
  out += "],\"flags\":[";
  for (size_t i = 0; i < flags_.size(); ++i) {
    if (i != 0) out += ",";
    out += quoted(flags_[i]);
  }
  return out + "]}";
}

std::string Report::result_json(bool trace, bool correct,
                                const OutcomeCounts& outcomes,
                                std::string* missing) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(outcomes.attempted()) +
                    ", \"failed\": " + std::to_string(outcomes.failed()) +
                    ", \"metrics\": {";
  const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
  bool first = true;
  for (const MetricDef& d : defs) {
    auto v = get(d.name);
    if (!v.has_value()) {
      if (!trace) {
        if (!missing->empty()) *missing += ",";
        *missing += d.name;
      }
      v = 0.0;  // a layer this workload never calls: no work, no time
    }
    if (!first) out += ", ";
    out += quoted(d.name) + ": {\"value\": " + json_number(*v) +
           ", \"unit\": " + quoted(d.unit) + "}";
    first = false;
  }
  return out + "}}";
}

}  // namespace perfbench
