// orchestrator.h — automatic sub-word orchestration (the paper's §4 claim
// that SPU code generation "is systematic and can be automated").
//
// The pass:
//   1. finds simple inner loops with statically known trip counts,
//   2. runs the byte-provenance analysis (provenance.h) under the chosen
//      crossbar configuration,
//   3. deletes the permutation instructions proven removable,
//   4. attaches crossbar routes to their consumers via a per-loop SPU
//      microprogram (one state per remaining body instruction, Figure 7),
//   5. rewrites the program: an MMIO programming prologue at entry, a
//      context-select + GO store immediately before each orchestrated loop,
//      with all branch targets re-patched.
//
// The transformed program must be run on a Machine with a Spu installed
// (attach_spu below); it produces bit-identical architectural results while
// the deleted permutations are performed by the SPU interconnect.
//
// Paper correspondence: §4 (automated SPU code generation, startup-cost
// accounting), Figure 7 (the one-state-per-instruction loop microprogram
// shape the rewriter emits), §5.2.1 (the manual variants this pass is
// measured against).
//
// Invariants:
//  * Soundness over speed: a permutation is deleted only when the
//    provenance analysis proves every consumed byte is still live at its
//    producing location under the chosen crossbar configuration; anything
//    unprovable stays in the instruction stream (see
//    AutoOrchestration.VerifiesOnEveryKernel).
//  * run() never mutates its input Program; the result owns a rewritten
//    copy whose prologue carries the per-context microprograms (the result
//    keeps only their count), and an OrchestrationResult
//    is immutable afterwards — the runtime layer shares it across threads
//    by shared_ptr<const> without locking.
//  * R14/R15 are reserved for the injected MMIO prologue; programs that
//    touch them are rejected (throw), never silently corrupted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mmio.h"
#include "core/provenance.h"
#include "core/spu.h"
#include "isa/program.h"
#include "sim/machine.h"

namespace subword::core {

struct OrchestratorOptions {
  CrossbarConfig config = kConfigA;
  int max_contexts = 8;
  uint64_t mmio_base = 0xF0000000ull;
  // When false, loops whose analysis finds nothing removable are left
  // untouched (no GO, no states) — avoids pure overhead.
  bool orchestrate_empty_loops = false;
};

struct LoopReport {
  size_t head = 0;            // original instruction index of the loop head
  int context = -1;           // SPU context assigned (-1: not orchestrated)
  int body_len_before = 0;
  int body_len_after = 0;
  int removed_permutations = 0;   // static count
  int candidate_permutations = 0;
  int total_permutations = 0;     // static, incl. packs
  int64_t trip_count = 0;
  std::string note;           // reject reason / diagnostics
};

struct OrchestrationResult {
  isa::Program program;            // transformed program
  int num_contexts = 0;             // SPU contexts the prologue programs
  std::vector<LoopReport> loops;
  int prologue_instructions = 0;   // MMIO programming cost (instructions)
  int go_instructions = 0;         // context-select + GO stores injected
                                   // before orchestrated loop heads
  int removed_static = 0;          // total removed permutations (static)

  [[nodiscard]] bool any_orchestrated() const {
    for (const auto& l : loops) {
      if (l.context >= 0) return true;
    }
    return false;
  }
};

// Flat scorecard of one orchestration — the quantities the paper's §4
// startup-cost accounting weighs against each other, extracted from an
// OrchestrationResult so the runtime planner (and reports) can price a
// candidate configuration without walking the loop list themselves.
struct OrchestrationReport {
  int removed_static = 0;        // permutations deleted (static count)
  // Σ removed × trip_count over orchestrated loops: permutation executions
  // deleted per entry into the orchestrated loops (one pass of the
  // program's workload; multiply by outer repeats for a dynamic estimate).
  int64_t removed_dynamic = 0;
  int prologue_instructions = 0; // MMIO programming cost at program entry
  int go_instructions = 0;       // per-loop context-select + GO cost
  int contexts_used = 0;         // SPU contexts consumed
  int loops_seen = 0;            // inner loops the analysis considered
  int loops_orchestrated = 0;    // loops that actually got a context

  // Total startup instructions the transformation injected.
  [[nodiscard]] int startup_instructions() const {
    return prologue_instructions + go_instructions;
  }
};

[[nodiscard]] OrchestrationReport summarize(const OrchestrationResult& r);

class Orchestrator {
 public:
  explicit Orchestrator(OrchestratorOptions opts = {}) : opts_(opts) {}

  // Transforms `p`. Throws std::logic_error if the program already uses the
  // reserved SPU setup registers (R14/R15).
  [[nodiscard]] OrchestrationResult run(const isa::Program& p) const;

  // Process-wide count of Orchestrator::run invocations. The analysis is
  // the expensive prepare-half step, so layers above promise laziness about
  // it (registry capability probes, Session construction); this counter is
  // what lets tests pin those promises down.
  [[nodiscard]] static uint64_t total_runs();

  [[nodiscard]] const OrchestratorOptions& options() const { return opts_; }

 private:
  OrchestratorOptions opts_;
};

// Creates a Spu matching `result`, maps its MMIO window into the machine's
// memory and installs it as the machine's operand router. The Spu object
// must outlive the machine run; the returned unique_ptrs own it.
struct AttachedSpu {
  std::unique_ptr<Spu> spu;
  std::unique_ptr<SpuMmio> mmio;
};
[[nodiscard]] AttachedSpu attach_spu(sim::Machine& m,
                                     const OrchestrationResult& result,
                                     const OrchestratorOptions& opts);

}  // namespace subword::core
