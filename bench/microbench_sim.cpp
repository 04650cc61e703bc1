// google-benchmark microbenches: cycle-simulator throughput (simulated
// cycles per host second) on representative kernels, baseline and SPU.
//
// Each benchmark prepares its program once, outside the timed loop, and
// then times execute_prepared alone on one reused scratch Machine — the
// batch engine's per-worker steady state — so the number measures the
// simulator, not program construction or orchestration.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "kernels/registry.h"
#include "kernels/runner.h"

using namespace subword;

namespace {

enum class Variant { kBaseline, kManualA, kAutoA, kAutoD };

kernels::PreparedProgram prepare(const kernels::MediaKernel& k, Variant v) {
  switch (v) {
    case Variant::kBaseline:
      return kernels::prepare_baseline(k, 1);
    case Variant::kManualA:
      return kernels::prepare_spu(k, 1, core::kConfigA,
                                  kernels::SpuMode::Manual);
    case Variant::kAutoA:
      return kernels::prepare_spu(k, 1, core::kConfigA,
                                  kernels::SpuMode::Auto);
    case Variant::kAutoD:
      return kernels::prepare_spu(k, 1, core::kConfigD,
                                  kernels::SpuMode::Auto);
  }
  return {};
}

void bench_sim(benchmark::State& state, const std::string& name, Variant v) {
  const auto k = kernels::make_kernel(name);
  const kernels::PreparedProgram p = prepare(*k, v);
  sim::Machine scratch(p.program, kernels::kMemBytes, p.pc);
  uint64_t cycles = 0;
  for (auto _ : state) {
    const auto run = kernels::execute_prepared(*k, p, &scratch);
    if (!run.verified) {
      state.SkipWithError("output failed verification");
      break;
    }
    cycles += run.stats.cycles;
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK_CAPTURE(bench_sim, fir12_baseline, "FIR12", Variant::kBaseline);
BENCHMARK_CAPTURE(bench_sim, fir12_manual_A, "FIR12", Variant::kManualA);
BENCHMARK_CAPTURE(bench_sim, fir12_auto_A, "FIR12", Variant::kAutoA);
BENCHMARK_CAPTURE(bench_sim, fir12_auto_D, "FIR12", Variant::kAutoD);
BENCHMARK_CAPTURE(bench_sim, transpose_baseline, "Matrix Transpose",
                  Variant::kBaseline);
BENCHMARK_CAPTURE(bench_sim, transpose_manual_A, "Matrix Transpose",
                  Variant::kManualA);
BENCHMARK_CAPTURE(bench_sim, transpose_auto_A, "Matrix Transpose",
                  Variant::kAutoA);
BENCHMARK_CAPTURE(bench_sim, transpose_auto_D, "Matrix Transpose",
                  Variant::kAutoD);
BENCHMARK_CAPTURE(bench_sim, fft128_baseline, "FFT128", Variant::kBaseline);
BENCHMARK_CAPTURE(bench_sim, fft128_manual_A, "FFT128", Variant::kManualA);
BENCHMARK_CAPTURE(bench_sim, fft128_auto_A, "FFT128", Variant::kAutoA);
BENCHMARK_CAPTURE(bench_sim, fft128_auto_D, "FFT128", Variant::kAutoD);
