// lowering.h — prepare-time lowering of a prepared program onto the
// native-SWAR backend.
//
// The walker symbolically executes the program once. Control flow, address
// arithmetic and SPU programming are computed concretely: GP registers are
// tracked as constants, branches are followed, and the SPU's decoupled
// controller is modeled in lock-step with the retired instruction stream
// (a real core::Spu + core::SpuMmio consume the program's own MMIO
// prologue), so every MMX instruction lands in the NativeTrace with its
// address, shift count and crossbar route pre-resolved.
//
// Data may flow through the scalar pipe too (IIR's feedback recurrence,
// motion estimation's SAD spill): when a GP value becomes data-dependent —
// it derives from MovdFromMmx or from a load of bytes that vary per
// execution — the walker cannot fold it, so it *defers* the computation:
// the affected scalar instructions are emitted into the trace as native GP
// ops and replay against NativeState::gp. Only three uses of a
// data-dependent value are unlowerable, because they would change what the
// walker already resolved: branch conditions, address bases, and MMIO
// (SPU-programming) stores.
//
// Which bytes "vary per execution"? The kernel contract (kernel.h): the
// BufferSpec input window holds caller data; everything else init_memory
// writes is deterministic. LoweringSpec::init replays the kernel's
// init_memory into the walker's arena and LoweringSpec::data_regions
// names the varying window, so loads of coefficient tables fold to
// constants while loads of input bytes defer. Bytes the program itself
// writes are tracked precisely (constant stores stay foldable, MMX/GP-
// deferred stores make the bytes data).
//
// What bails out (LoweringError), by design:
//  * branches or loop counters whose condition is data-dependent,
//  * loads/stores whose address base is data-dependent,
//  * SPU programming (MMIO stores) with data-dependent values,
//  * crossbar routes that differ between the U and V pipe slices (the
//    executing pipe is a timing property the backend does not model;
//    every route in the tree routes both pipes identically),
//  * dynamic streams longer than LoweringSpec::max_ops (runaway guard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/native.h"
#include "core/crossbar.h"
#include "core/mmio.h"
#include "isa/program.h"
#include "sim/memory.h"

namespace subword::backend {

// A program the native backend cannot execute (data-dependent control
// flow, unsupported SPU usage, ...). The api:: facade maps this to
// ErrorCode::kBackendUnsupported.
//
// Rejections raised while walking the program carry actionable context —
// the static index of the offending instruction, its disassembly and the
// crossbar configuration the walk ran under — so a fuzz report (or a log
// line) identifies the exact bail site without re-running the lowering.
class LoweringError : public std::runtime_error {
 public:
  explicit LoweringError(const std::string& what)
      : std::runtime_error("native lowering: " + what) {}
  LoweringError(const std::string& what, int64_t op_index,
                std::string instruction, std::string config)
      : std::runtime_error(
            "native lowering: " + what + " [op " + std::to_string(op_index) +
            ": " + instruction + "; config " + config + "]"),
        op_index_(op_index),
        instruction_(std::move(instruction)),
        config_(std::move(config)) {}

  // Static instruction index of the bail site, -1 when the rejection
  // happened outside the walk (spec validation, empty program).
  [[nodiscard]] int64_t op_index() const { return op_index_; }
  // Disassembly of the offending instruction (empty outside the walk).
  [[nodiscard]] const std::string& instruction() const { return instruction_; }
  // Crossbar configuration name the walk ran under (empty outside the walk).
  [[nodiscard]] const std::string& config() const { return config_; }

 private:
  int64_t op_index_ = -1;
  std::string instruction_;
  std::string config_;
};

// Execution parameters of the program being lowered — the same fields a
// kernels::PreparedProgram records for the simulator's SPU attachment,
// plus the data/constant split of the arena (see above).
struct LoweringSpec {
  core::CrossbarConfig cfg{};
  bool use_spu = false;
  int num_contexts = 8;
  uint64_t mmio_base = core::SpuMmio::kDefaultBase;
  size_t mem_bytes = 1u << 20;        // arena size the trace replays against
  uint64_t max_ops = 1ull << 23;      // dynamic-stream runaway guard

  // Deterministic arena initialisation (the kernel's init_memory). The
  // walker runs it once and captures the resulting arena as
  // NativeTrace::image; the trace is only valid for replays that start
  // from that image, which execute_native guarantees by restoring it.
  std::function<void(sim::Memory&)> init;

  // Byte ranges whose contents vary per execution (the BufferSpec input
  // window). Loads from these defer instead of folding.
  struct Region {
    uint64_t addr = 0;
    size_t len = 0;
  };
  std::vector<Region> data_regions;
};

// Walk the full dynamic instruction stream and pre-decode it into a
// NativeTrace. Throws LoweringError when the program cannot be proven
// replayable (see above).
[[nodiscard]] NativeTrace lower(const isa::Program& program,
                                const LoweringSpec& spec);

// Test-only fault injection: while enabled, the walker deliberately
// mis-lowers Paddsw as wrapping Paddw. Exists solely so the fuzz
// minimizer's divergence-shrinking loop has a reproducible lowering bug to
// chase (tests/test_fuzz_differential.cpp, fuzz_driver --break-lowering);
// never enable outside tests. Process-global, read at lower() time.
void set_lowering_fault_injection(bool enabled);
[[nodiscard]] bool lowering_fault_injection();

}  // namespace subword::backend
