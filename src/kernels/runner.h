// runner.h — executes kernels on the simulated machine, baseline and SPU.
//
// The entry points are split into an expensive *prepare* half (program
// construction and, for SpuMode::Auto, the orchestrator's provenance
// analysis and rewriting) and a cheap *execute* half (simulate the prepared
// program on a fresh or reset Machine). A PreparedProgram is immutable and
// safe to replay concurrently from many threads; src/runtime caches them so
// the prepare cost is paid once per unique configuration — the paper's
// prologue-amortization economy lifted to service level.
//
// Thread-safety and ownership contracts (established in the batch-runtime
// PR, relied on by src/runtime):
//  * prepare_* are pure functions of their arguments: no shared state, so
//    any thread may prepare any kernel concurrently. Registry lookups
//    (kernels/registry.h) construct fresh MediaKernel instances per call
//    and are likewise safe from any thread; a MediaKernel itself is
//    stateless after construction and const-usable concurrently.
//  * PreparedProgram members are written once during prepare and never
//    mutated afterwards. `program` and `orchestration` are
//    shared_ptr<const ...>; for the Auto path `program` aliases into the
//    OrchestrationResult, so the analysis product lives exactly as long
//    as any executor still holds the program — KernelRun::orchestration
//    shares rather than copies it for the same reason.
//  * execute_prepared may be called concurrently for the same
//    PreparedProgram from many threads: it only reads the prepared state.
//    The optional `scratch` Machine is the *caller's* exclusive resource
//    (one per worker thread in the batch engine): Machine::reset is not
//    thread-safe and must never race with run(). execute_prepared
//    guarantees a borrowed scratch machine is returned with its router
//    and device window detached — even on exception unwind — so the next
//    job never sees a dangling Spu pointer.
#pragma once

#include <cstdint>
#include <memory>

#include "core/orchestrator.h"
#include "kernels/kernel.h"
#include "sim/machine.h"

namespace subword::backend {
struct NativeTrace;
}  // namespace subword::backend

namespace subword::kernels {

// Which executor replays a prepared program.
//  * kSimulator: the cycle-level machine in src/sim — full pairing, branch
//    prediction and stall modeling; the only backend that produces cycle
//    statistics.
//  * kNativeSwar: the pre-decoded host-SWAR trace executor in src/backend —
//    bit-identical outputs, no cycle model, one to two orders of magnitude
//    faster. Only available for programs the lowering can prove
//    data-independent (see backend/lowering.h); KernelInfo::native_backend
//    says which registry kernels qualify.
enum class ExecBackend : uint8_t {
  kSimulator,
  kNativeSwar,
};

[[nodiscard]] constexpr const char* to_string(ExecBackend b) {
  return b == ExecBackend::kNativeSwar ? "native" : "simulator";
}

struct KernelRun {
  sim::RunStats stats;
  bool verified = false;
  // Controller-side counters (activations, steps, routed operand fetches).
  core::SpuRunStats spu;
  // Present for the automatic-orchestrator path; shared so cached results
  // can be replayed without copying the analysis product per request.
  std::shared_ptr<const core::OrchestrationResult> orchestration;
};

enum class SpuMode {
  Manual,  // the kernel's hand-written SPU variant (paper methodology)
  Auto,    // orchestrator applied to the baseline program
};

// The immutable product of the prepare half. Shareable across threads: all
// members are const after construction and execution only reads them.
struct PreparedProgram {
  std::shared_ptr<const isa::Program> program;
  // Auto-orchestrated runs keep the full analysis result for reporting.
  std::shared_ptr<const core::OrchestrationResult> orchestration;
  core::CrossbarConfig cfg{};
  sim::PipelineConfig pc{};
  bool use_spu = false;
  int repeats = 1;
  // SPU attachment parameters — the single source of truth for execution,
  // recorded from the same options the program's MMIO prologue was
  // generated against (Auto), or the paper defaults the hand-written
  // variants hardcode (Manual).
  int num_contexts = 8;
  uint64_t mmio_base = core::SpuMmio::kDefaultBase;
  // The native backend's pre-decoded op trace, attached by lower_native
  // for ExecBackend::kNativeSwar preparations (null otherwise). Like the
  // other members it is written once during prepare and immutable
  // thereafter; the orchestration cache keys preparations by backend, so a
  // simulator entry never carries a trace and a native entry always does.
  std::shared_ptr<const backend::NativeTrace> native;
};

// Build the baseline MMX program (no SPU pipeline stage).
[[nodiscard]] PreparedProgram prepare_baseline(const MediaKernel& k,
                                               int repeats,
                                               sim::PipelineConfig pc = {});

// Build the MMX+SPU program. Manual uses the kernel's hand-written variant
// (throws std::logic_error if it has none); Auto runs the orchestrator over
// the baseline program. `opts`, when given, overrides the orchestrator
// options (its config field is forced to `cfg`).
[[nodiscard]] PreparedProgram prepare_spu(
    const MediaKernel& k, int repeats, const core::CrossbarConfig& cfg,
    SpuMode mode = SpuMode::Manual, sim::PipelineConfig pc = {},
    const core::OrchestratorOptions* opts = nullptr);

// Simulate a prepared program: fresh Machine, SPU attached when the
// program expects one, memory initialised and outputs verified. When
// `scratch` is non-null and holds a Machine of the right memory size it is
// reset and reused instead of reallocating (the batch runtime's per-worker
// Machine); otherwise a Machine is constructed per call.
//
// `buffers`, when non-null and non-empty, is the user-owned-buffer path:
// the binding's input bytes replace the kernel's synthetic primary input
// (verification switches to MediaKernel::verify_bound against them) and
// the primary output region is copied back into the binding's output span
// after the run — only if verification succeeded, so a failed run never
// overwrites caller memory. Sizes must match the BufferSpec exactly; throws
// std::invalid_argument otherwise, or if the kernel advertises no spec.
// Buffers are an execute-half concern only — they never affect preparation,
// which is what keeps PreparedPrograms cacheable across requests with
// different data.
[[nodiscard]] KernelRun execute_prepared(const MediaKernel& k,
                                         const PreparedProgram& p,
                                         sim::Machine* scratch = nullptr,
                                         const BufferBinding* buffers =
                                             nullptr);

// Lower `p` onto the native backend and attach the op trace (the second
// half of a kNativeSwar preparation). The kernel supplies the
// deterministic arena initialisation and the caller-data window the
// lowering proof is relative to (see backend/lowering.h); the trace keeps
// the arena init_memory produced as its image, so executions restore it
// instead of re-running init_memory. Throws
// backend::LoweringError when the program cannot be proven replayable;
// p is left unchanged then.
void lower_native(const MediaKernel& k, PreparedProgram& p);

// Replay a natively-lowered program (p.native must be set). The arena
// starts as the post-init image lower_native captured (NativeTrace::image)
// — init_memory does not run again — then inputs are bound and outputs
// verified and copied back exactly as execute_prepared does. The program
// body runs as the pre-decoded host-SWAR trace — no cycle simulation, so
// the returned stats carry instruction counts only. When `scratch` is
// non-null and sized like the arena it is restored from the image and
// reused (the batch runtime's per-worker native arena); whatever the
// caller wrote into it between calls is undone by the restore. It is the
// caller's exclusive resource, exactly like execute_prepared's scratch
// Machine.
[[nodiscard]] KernelRun execute_native(const MediaKernel& k,
                                       const PreparedProgram& p,
                                       sim::Memory* scratch = nullptr,
                                       const BufferBinding* buffers =
                                           nullptr);

// Legacy wrappers (prepare + execute in one call). Kept for tests, benches
// and one-shot tooling; new consumers should go through the api:: facade
// (api/session.h), which routes through the prepare/execute split and the
// orchestration cache.
[[nodiscard]] KernelRun run_baseline(const MediaKernel& k, int repeats,
                                     sim::PipelineConfig pc = {});

// Legacy wrapper: MMX+SPU run, extra pipeline stage enabled, SPU attached,
// MMIO programming charged. Throws if mode==Manual and the kernel has no
// manual variant.
[[nodiscard]] KernelRun run_spu(const MediaKernel& k, int repeats,
                                const core::CrossbarConfig& cfg,
                                SpuMode mode = SpuMode::Manual,
                                sim::PipelineConfig pc = {});

}  // namespace subword::kernels
