// layers.h — per-layer probes: the benchmark times its own calls into the
// public phase functions of the prepare and native-execute halves, on
// shapes and inputs sampled from the workload it runs.
//
// The native probe replays what kernels::execute_native does, one public
// call at a time, on an arena the probe owns:
//   sim::Memory::clear -> init_memory -> bind_input -> backend::run_trace
//   -> verify / verify_bound -> read_vector (the output copyback)
// and, separately, execute_native as one call. The prepare probe times
// program construction, the orchestrator (prepare_spu in Auto mode) and
// lower_native. Medians are reported.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/crossbar.h"
#include "kernels/kernel.h"
#include "kernels/runner.h"
#include "metrics.h"
#include "sim/memory.h"

namespace perfbench {

namespace core = subword::core;
namespace kernels = subword::kernels;
namespace sim = subword::sim;

// One preparation shape, as the benchmark names it.
struct Shape {
  std::string kernel;
  int repeats = 1;
  bool use_spu = false;
  kernels::SpuMode mode = kernels::SpuMode::Auto;
  core::CrossbarConfig cfg = core::kConfigA;

  [[nodiscard]] std::string label() const;
};

class PrepareProbe {
 public:
  // Prepare `s` from scratch through the public prepare functions, timing
  // each phase; `native` also lowers it. Returns the prepared program.
  kernels::PreparedProgram prepare(const kernels::MediaKernel& k,
                                   const Shape& s, bool native);
  void report(Report& r) const;

 private:
  std::vector<double> build_us_;
  std::vector<double> orchestrate_us_;
  std::vector<double> lower_us_;
};

class NativeProbe {
 public:
  NativeProbe();

  // Time one execution of natively-lowered `p` phase by phase (input empty:
  // the kernel's synthetic workload). False when the run did not verify.
  bool sample(const kernels::MediaKernel& k, const kernels::PreparedProgram& p,
              std::span<const uint8_t> input);
  void report(Report& r) const;
  [[nodiscard]] size_t samples() const { return execute_us_.size(); }

 private:
  std::unique_ptr<sim::Memory> arena_;
  std::vector<double> execute_us_, clear_us_, init_us_, bind_us_, trace_us_,
      verify_us_, copyback_us_;
  double ops_ = 0;
  double trace_ns_ = 0;
};

}  // namespace perfbench
