// spu.h — the Sub-word Permutation Unit runtime.
//
// Implements sim::OperandRouter: while the GO bit is set, the controller
// walks its microprogram in lock-step with the retired instruction stream,
// applying each state's interconnect route to the operand fetch of the MMX
// instruction at that step. Reaching the IDLE state clears GO and reloads
// the counters, making tight loops fully self-managing ("zero-overhead").
//
// Multiple contexts hold independently programmed microprograms; a write to
// the configuration register selects the context and sets GO (paper §3:
// "several copies of the SPU control registers, allowing for fast context
// switching").
//
// Paper correspondence: §3 (the decoupled micro-programmed controller and
// its counters), Figure 7 (the loop-shaped state chain), §4 (GO/stop
// discipline around exceptions, exercised in test_integration).
//
// Invariants:
//  * Lock-step: the controller advances exactly once per retired
//    instruction while GO is set — microprograms are built one state per
//    loop-body instruction (scalar instructions included), and counters
//    exhaust exactly at the loop's last retirement.
//  * The activating MMIO store itself does not step the controller
//    (arm_activation_skip), so state 0 aligns with the first loop-body
//    instruction after GO.
//  * While idle/stopped the router passes operands through unrouted.
//  * Validate once per programming: every change to a context's states or
//    routes (load_context, set_state, and so the MMIO state and route
//    writes) marks that context, and go() re-runs
//    SpuProgram::violation() only for a marked context, throwing rather
//    than route an illegal program. Counter reloads and CONFIG writes do
//    not mark. No mutable reference to a context is handed out, so no
//    change can bypass the mark.
//  * Each state's routed operand slices (pipe x operand) are kept as bits
//    updated with every state change, so route() gathers only the slices
//    that have a routed byte without scanning the selectors.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/spu_program.h"
#include "sim/router.h"

namespace subword::core {

struct SpuRunStats {
  uint64_t steps = 0;          // controller transitions while active
  uint64_t routed_operands = 0;  // operand fetches that used the crossbar
  uint64_t activations = 0;      // GO writes
  uint64_t idles = 0;            // transitions into IDLE
};

class Spu final : public sim::OperandRouter {
 public:
  explicit Spu(CrossbarConfig cfg, int num_contexts = 1);

  [[nodiscard]] const CrossbarConfig& config() const { return cfg_; }
  [[nodiscard]] int num_contexts() const {
    return static_cast<int>(contexts_.size());
  }

  [[nodiscard]] const SpuProgram& context(int i) const {
    return contexts_.at(i);
  }
  // Programming interface (tests / builders); the MMIO registers of
  // mmio.h write through set_reload and set_state. Replacing a whole
  // context or one of its states marks the context for revalidation at
  // the next go(); a counter reload does not.
  void load_context(int i, const SpuProgram& prog);
  void set_state(int i, int state, const SpuState& st);
  void set_reload(int i, int counter, uint32_t value);
  [[nodiscard]] int selected_context() const { return cur_context_; }
  void select_context(int i);

  // Activate: validates the selected context against the crossbar
  // configuration if it changed since it last passed (throws
  // std::logic_error on violation), enters state 0 and loads the
  // counters. The activating MMIO store itself does not step the
  // controller.
  void go();
  // Deactivate (exception handlers write this; paper §4).
  void stop();

  [[nodiscard]] bool active() const override { return go_; }
  [[nodiscard]] uint8_t current_state() const { return cur_state_; }
  [[nodiscard]] uint32_t counter(int i) const { return counter_.at(i); }

  bool route(const isa::Inst& in, sim::Pipe pipe,
             const sim::MmxRegFile& regs, swar::Vec64* a,
             swar::Vec64* b) override;
  void retire(const isa::Inst& in) override;

  [[nodiscard]] const SpuRunStats& run_stats() const { return stats_; }

  // Used by the MMIO device to suppress the controller step of the
  // activating store instruction.
  void arm_activation_skip() { skip_next_retire_ = true; }

 private:
  // Per-context facts derived from its states.
  struct ContextFacts {
    bool validated = false;  // passed violation() since its last change
    // Bit 2*pipe+operand set when that operand slice has a routed byte.
    std::array<uint8_t, kNumStates> routed{};
  };

  CrossbarConfig cfg_;
  std::vector<SpuProgram> contexts_;
  std::vector<ContextFacts> facts_;
  int cur_context_ = 0;
  uint8_t cur_state_ = kIdleState;
  std::array<uint32_t, kNumCounters> counter_{};
  bool go_ = false;
  bool skip_next_retire_ = false;
  SpuRunStats stats_;
};

}  // namespace subword::core
