// metrics.h — the benchmark's metric catalogue and result record.
//
// Two lists mirror BENCHMARK.json: the end-to-end metrics an untraced run
// prints on its last line, and the per-layer metrics a traced run prints
// there. Every workload reports every metric of the list its mode prints;
// a per-layer metric of a layer the workload never calls reads 0 (no work,
// no time). A third list holds end-to-end metrics printed in the
// human-readable report and the detail line but not on the last line:
// those only some workloads can measure (the p99 of a workload with too
// few samples does not exist, native workloads simulate no cycles), those
// that read 0 on a passing run (error_rate), the tail percentiles, which
// on a shared host swing run to run by more than any bound a regression
// gate could use, and serve_mixed's load-generator figures.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();
[[nodiscard]] const std::vector<MetricDef>& workload_metrics();

// Unit of any catalogued metric; nullptr when the name is unknown.
[[nodiscard]] const char* unit_of(const std::string& name);

class Report {
 public:
  // Record a metric value (the name must be catalogued).
  void set(const std::string& name, double value);
  // Record a latency percentile, or mark it withheld when the sample rule
  // refuses it.
  void set_percentile(const std::string& name, std::optional<double> value,
                      size_t samples);
  void set_samples(const std::string& name, size_t n) { samples_[name] = n; }
  // The per-round values a metric was reduced from (shown, not reported).
  void set_rounds(const std::string& name, std::vector<double> v) {
    rounds_[name] = std::move(v);
  }
  [[nodiscard]] std::optional<double> get(const std::string& name) const;

  // A free-form remark shown in the report and the detail line (flags
  // such as an open-loop sender that fell behind its schedule).
  void flag(std::string text) { flags_.push_back(std::move(text)); }

  // Human-readable listing of every recorded metric with its unit.
  void print(std::FILE* out) const;

  // One JSON object with every recorded value (all lists), the sample
  // counts, flags, outcome counts and the host block.
  [[nodiscard]] std::string detail_json(const OutcomeCounts& outcomes,
                                        const std::string& host_json) const;

  // The result line: {"correct","attempted","failed","metrics"} with the
  // end-to-end list (trace=false) or the per-layer list (trace=true).
  // Missing end-to-end values are an error: *missing names them.
  [[nodiscard]] std::string result_json(bool trace, bool correct,
                                        const OutcomeCounts& outcomes,
                                        std::string* missing) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, size_t> samples_;
  std::map<std::string, std::vector<double>> rounds_;
  std::vector<std::string> withheld_;
  std::vector<std::string> flags_;
};

// Full-precision JSON number.
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
