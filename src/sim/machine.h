// machine.h — the simulated Pentium-MMX-class machine.
//
// In-order dual-issue (U/V) core executing an isa::Program against a
// Memory, with:
//  * the pairing rules of pairing.h,
//  * 3-cycle pipelined MMX multiplies (scoreboard on destination registers),
//  * a 2-bit branch predictor and a configurable mispredict penalty,
//  * an optional extra pipeline stage modelling the SPU interconnect
//    (paper §5.1.1: +1 mispredict penalty, +1 fill cycle),
//  * an OperandRouter hook through which the SPU intercepts operand fetch.
//
// Code and data are assumed L1-resident (paper §5.2.1): loads are 1 cycle.
//
// Decode once per job: construction and reset() decode the program into a
// per-instruction table (unified registers read and written, execution
// class, latency, statistics category, and whether the instruction pairs
// with its successor under can_pair). The run loop's readiness, pairing,
// scoreboard and category accounting read only that table. The table lives
// in a buffer the Machine keeps across resets; regs_read/regs_written/
// can_pair in pairing.h stay the single definitions it is built from.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "isa/program.h"
#include "sim/bpred.h"
#include "sim/memory.h"
#include "sim/pairing.h"
#include "sim/regfile.h"
#include "sim/router.h"
#include "sim/stats.h"

namespace subword::sim {

struct PipelineConfig {
  int mispredict_penalty = 4;  // Pentium-class flush cost
  bool extra_spu_stage = false;  // lengthen pipe for the SPU interconnect
  int bht_entries = 1024;
  PredictorKind bpred = PredictorKind::LocalHistory;  // P6-class default
  bool dual_issue = true;        // ablation: scalar-issue machine
  uint64_t max_cycles = 1ull << 40;  // runaway guard
};

struct TraceEvent {
  uint64_t cycle = 0;
  uint64_t index = 0;   // instruction index in the program
  Pipe pipe = Pipe::U;
  bool mispredicted = false;
  const isa::Inst* inst = nullptr;
};
using TraceFn = std::function<void(const TraceEvent&)>;

class Machine {
 public:
  Machine(isa::Program program, size_t mem_bytes, PipelineConfig cfg = {});
  // Shared-program overload: the batch runtime executes one immutable
  // cached program from many machines without copying it per job.
  Machine(std::shared_ptr<const isa::Program> program, size_t mem_bytes,
          PipelineConfig cfg = {});

  [[nodiscard]] Memory& memory() { return mem_; }
  [[nodiscard]] const Memory& memory() const { return mem_; }
  [[nodiscard]] MmxRegFile& mmx() { return mmx_; }
  [[nodiscard]] GpRegFile& gp() { return gp_; }
  [[nodiscard]] const isa::Program& program() const { return *prog_; }
  [[nodiscard]] const PipelineConfig& config() const { return cfg_; }

  void set_router(OperandRouter* router) { router_ = router; }
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  // Reset for reuse between jobs: replaces the program and pipeline
  // configuration, zeroes memory and architectural state, detaches router,
  // trace and device mapping, clears statistics and decodes the new
  // program. Keeps the memory and decode-table allocations — the batch
  // runtime resets one Machine per worker instead of reallocating per job.
  void reset(isa::Program program, PipelineConfig cfg = {});
  void reset(std::shared_ptr<const isa::Program> program,
             PipelineConfig cfg = {});

  // Run until Halt (or cycle limit). Returns the accumulated statistics.
  const RunStats& run();

  // Run until `n` more instructions have retired or Halt. Leaves the
  // machine resumable — used by the exception/interrupt tests.
  const RunStats& run_for_instructions(uint64_t n);

  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] bool halted() const { return halted_; }
  [[nodiscard]] uint64_t pc() const { return pc_; }

 private:
  // Statistics category of an instruction (RunStats' §5.2.1 split).
  enum class Category : uint8_t {
    MmxCompute,
    MmxPermutation,
    MmxMemory,
    Scalar,
    Branch,
  };

  // The static facts the run loop needs about one program instruction.
  struct Decoded {
    RegSet reads;   // unified register ids
    RegSet writes;
    uint8_t latency = 1;
    Category category = Category::Scalar;
    bool is_mmx = false;
    bool pairs_with_next = false;  // can_pair(insts[i], insts[i + 1])
  };

  void decode();
  // Executes one instruction architecturally; updates stats categories and
  // the register scoreboard. Returns the next pc.
  uint64_t execute(const isa::Inst& in, const Decoded& d, Pipe pipe,
                   bool* was_branch, bool* mispredicted);
  [[nodiscard]] bool operands_ready(const Decoded& d, uint64_t cycle) const;
  void account_category(const Decoded& d);

  std::shared_ptr<const isa::Program> prog_;
  std::vector<Decoded> decoded_;  // one entry per program instruction
  Memory mem_;
  PipelineConfig cfg_;
  MmxRegFile mmx_;
  GpRegFile gp_;
  BranchPredictor bpred_;
  OperandRouter* router_ = nullptr;
  TraceFn trace_;

  RunStats stats_;
  uint64_t cycle_ = 0;
  uint64_t pc_ = 0;
  bool halted_ = false;
  bool started_ = false;
  // Result-ready cycle per unified register id.
  std::array<uint64_t, kUnifiedRegs> ready_{};
};

}  // namespace subword::sim
