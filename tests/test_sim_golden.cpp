// Golden cycle-simulator table: every registry kernel under the baseline,
// the hand-written SPU variant (where the configuration realizes it) and
// the automatic orchestrator, configurations A-D, repeats 1 and 2, plus the
// two pipeline ablations (2-bit predictor, scalar issue) on the baseline.
// Each shape pins every RunStats field and the SPU controller's counters.
//
// The simulator's modelled counts are the paper's results (Figure 9
// cycles, Table 2 branch behaviour, the §5.2.1 category counts), so a
// change that claims to only make the simulator faster must leave every
// number here untouched. On a mismatch the test prints the row the code
// now produces, in the table's own syntax.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "kernels/registry.h"
#include "kernels/runner.h"

using namespace subword;

namespace {

// Column order of GoldenRow::run: the RunStats counters in declaration
// order (has_cycles is always true on the simulator and checked apart).
struct GoldenRow {
  const char* kernel;
  const char* variant;  // baseline | manual | auto | baseline-2bit | baseline-scalar
  char cfg;             // 'A'..'D'; '-' for the baseline rows
  int repeats;
  bool verified;
  std::array<uint64_t, 15> run;  // cycles instructions mmx_instructions
                                 // mmx_compute mmx_permutation mmx_memory
                                 // scalar_instructions branches
                                 // branch_mispredicts mmx_busy_cycles
                                 // dual_issue_cycles issue_cycles
                                 // stall_cycles spu_routed_ops
                                 // spu_mmio_stores
  std::array<uint64_t, 4> spu;   // steps routed_operands activations idles
};

constexpr GoldenRow kGolden[] = {
#include "sim_golden.inc"
};

std::array<uint64_t, 15> run_columns(const sim::RunStats& s) {
  return {s.cycles,          s.instructions,      s.mmx_instructions,
          s.mmx_compute,     s.mmx_permutation,   s.mmx_memory,
          s.scalar_instructions,
          s.branches,        s.branch_mispredicts,
          s.mmx_busy_cycles, s.dual_issue_cycles, s.issue_cycles,
          s.stall_cycles,    s.spu_routed_ops,    s.spu_mmio_stores};
}

std::array<uint64_t, 4> spu_columns(const core::SpuRunStats& s) {
  return {s.steps, s.routed_operands, s.activations, s.idles};
}

template <size_t N>
void put(std::ostringstream& os, const std::array<uint64_t, N>& v) {
  os << '{';
  for (size_t i = 0; i < N; ++i) os << (i == 0 ? "" : ", ") << v[i];
  os << '}';
}

std::string format_row(const GoldenRow& r) {
  std::ostringstream os;
  os << "{\"" << r.kernel << "\", \"" << r.variant << "\", '" << r.cfg
     << "', " << r.repeats << ", " << (r.verified ? "true" : "false")
     << ",\n ";
  put(os, r.run);
  os << ",\n ";
  put(os, r.spu);
  os << "},";
  return os.str();
}

struct Shape {
  std::string kernel;
  std::string variant;
  char cfg;
  int repeats;
};

kernels::PreparedProgram prepare(const kernels::MediaKernel& k,
                                 const Shape& s) {
  const core::CrossbarConfig& cfg =
      core::kAllConfigs[static_cast<size_t>(s.cfg == '-' ? 0 : s.cfg - 'A')];
  if (s.variant == "manual") {
    return kernels::prepare_spu(k, s.repeats, cfg, kernels::SpuMode::Manual);
  }
  if (s.variant == "auto") {
    return kernels::prepare_spu(k, s.repeats, cfg, kernels::SpuMode::Auto);
  }
  sim::PipelineConfig pc;
  if (s.variant == "baseline-2bit") pc.bpred = sim::PredictorKind::TwoBit;
  if (s.variant == "baseline-scalar") pc.dual_issue = false;
  return kernels::prepare_baseline(k, s.repeats, pc);
}

std::vector<Shape> all_shapes() {
  std::vector<Shape> shapes;
  for (const auto& info : kernels::kernel_infos()) {
    const auto k = kernels::make_kernel(info.name);
    for (int r : {1, 2}) {
      shapes.push_back({info.name, "baseline", '-', r});
      for (size_t c = 0; c < core::kAllConfigs.size(); ++c) {
        const char cfg = static_cast<char>('A' + c);
        if (k->build_spu(core::kAllConfigs[c], r).has_value()) {
          shapes.push_back({info.name, "manual", cfg, r});
        }
        shapes.push_back({info.name, "auto", cfg, r});
      }
    }
    shapes.push_back({info.name, "baseline-2bit", '-', 1});
    shapes.push_back({info.name, "baseline-scalar", '-', 1});
  }
  return shapes;
}

}  // namespace

TEST(SimGolden, EveryShapeMatchesTheTable) {
  using Key = std::tuple<std::string, std::string, char, int>;
  std::set<Key> covered;
  // One scratch machine for the whole sweep, as a batch-engine worker
  // reuses one: reset must leave nothing behind from the previous shape.
  sim::Machine scratch(isa::Program({isa::Inst{isa::Op::Halt}}, {}),
                       kernels::kMemBytes);
  for (const Shape& s : all_shapes()) {
    const auto k = kernels::make_kernel(s.kernel);
    const kernels::KernelRun run =
        kernels::execute_prepared(*k, prepare(*k, s), &scratch);
    EXPECT_TRUE(run.stats.has_cycles);
    const GoldenRow actual{s.kernel.c_str(), s.variant.c_str(), s.cfg,
                           s.repeats,        run.verified,
                           run_columns(run.stats), spu_columns(run.spu)};
    const GoldenRow* want = nullptr;
    for (const auto& g : kGolden) {
      if (s.kernel == g.kernel && s.variant == g.variant && s.cfg == g.cfg &&
          s.repeats == g.repeats) {
        want = &g;
        break;
      }
    }
    covered.insert({s.kernel, s.variant, s.cfg, s.repeats});
    if (want == nullptr) {
      ADD_FAILURE() << "no golden row for this shape; it now reads:\n"
                    << format_row(actual);
      continue;
    }
    EXPECT_EQ(format_row(*want), format_row(actual))
        << s.kernel << ' ' << s.variant << ' ' << s.cfg << " x" << s.repeats;
  }
  // Every row names a shape that still exists: no stale entries.
  for (const auto& g : kGolden) {
    EXPECT_EQ(covered.count({g.kernel, g.variant, g.cfg, g.repeats}), 1u)
        << "stale golden row " << g.kernel << ' ' << g.variant << ' '
        << g.cfg << " x" << g.repeats;
  }
}
