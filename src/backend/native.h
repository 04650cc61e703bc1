// native.h — the native-SWAR execution backend's op trace and replay loop.
//
// The cycle-level simulator in src/sim answers "how fast would this run on
// the modeled hardware"; this backend answers "what bytes does the kernel
// produce" as fast as the *host* allows. A NativeTrace is the product of
// src/backend/lowering.h: the prepared program's full dynamic instruction
// stream, pre-decoded into host SWAR operations (src/swar — SSE2 where
// available, the portable bit-trick backend otherwise) with every address,
// shift count, crossbar route and scalar side effect resolved at prepare
// time. Execution (run_trace) is one flat switch over each op's code byte,
// with the SWAR body inlined in its case, against a flat MMX register file
// and a raw pointer into the memory arena — no decode, no pairing, no
// branch-predictor modeling, no stats bookkeeping, no per-op bounds check
// or page marking. Crossbar routes replay as gather plans: each routed
// operand's byte selection, resolved to register-file bytes at lowering.
// The last lowering step, optimize_trace, rewrites the trace into a
// shorter equivalent one: whole-register routes become register reads and
// loads whose only readers are ALU ops become memory operands.
//
// Invariants:
//  * A NativeTrace is immutable after lowering and safe to replay
//    concurrently from many threads (each replay owns its NativeState).
//  * Replaying a trace produces a memory arena and MMX register file
//    byte-identical to simulating the program it was lowered from, for
//    any input data (the lowering walker rejects programs for which this
//    cannot be proven — see lowering.h).
//  * Every load and store lies inside [span_lo, span_hi), which lies
//    inside an arena of image.size bytes; every store lies inside the
//    pages of written_pages. run_trace checks the arena against these
//    once per replay, then lets the ops address it unchecked.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/crossbar.h"
#include "isa/inst.h"
#include "sim/exec.h"
#include "sim/memory.h"
#include "sim/regfile.h"
#include "swar/vec64.h"

namespace subword::backend {

// Mutable execution state of one replay: the flat register files and the
// arena the ops read and write. The GP bank exists for the *data* slice of
// the scalar plane only — control-flow scalar work (loop counters,
// addresses, SPU programming) is resolved away at lowering time and never
// replays.
struct NativeState {
  sim::MmxRegFile regs;
  std::array<uint64_t, isa::kNumGpRegs> gp{};
  sim::Memory* mem = nullptr;
};

// One routed operand, resolved at lowering time against the op's own
// registers. Output byte i is byte src[i] of the MMX register file (the SPU
// register's byte addressing; a straight byte names the operand's own
// register), its sign fill (Route::kSignExtend), or zero (Route::kZero).
// The copied bytes are grouped into runs: consecutive output bytes taken
// from consecutive bytes of one register. A run is one register read, a
// rotate and a mask, so a replay never reads outside the register file.
struct GatherPlan {
  struct Run {
    uint64_t keep = 0;  // 0xFF in each output byte the run copies
    // 0xFF in each sign-filled byte after the run: they copy the sign of
    // the run's last byte, whose top bit is bit `sign_bit` of the output.
    uint64_t sign = 0;
    uint8_t reg = 0;       // source MMX register
    uint8_t rot = 0;       // left-rotate (bits) placing its bytes
    uint8_t sign_bit = 0;
  };
  uint8_t runs = 0;  // used entries of `run`; no runs reads as zero
  std::array<Run, core::kOperandBytes> run{};
};

// One pre-decoded operation: a code byte selecting the replay case and its
// pre-resolved operands. Kept compact — a trace holds the whole unrolled
// dynamic stream.
struct NativeOp {
  enum class Code : uint8_t {
    kLoad64, kLoad32, kStore64, kStore32, kSetImm,
    kSStore16, kSStore32, kSStore64,
    // Deferred scalar (GP) plane.
    kGpSet, kGpMov, kGpAdd, kGpSub, kGpMul, kGpAnd, kGpOr, kGpXor,
    kGpAddi, kGpSubi, kGpShli, kGpShri, kGpSrai,
    kGpLoad16, kGpLoad32, kGpLoad64, kGpStore16, kGpStore32, kGpStore64,
    kGpFromMmx, kMmxFromGp,
    // One code per MMX data op, then the same ops with at least one
    // operand gathered through a crossbar route.
#define SUBWORD_ALU_CODE(name, result) k##name,
    SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CODE)
#undef SUBWORD_ALU_CODE
#define SUBWORD_ALU_CODE(name, result) k##name##Routed,
    SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CODE)
#undef SUBWORD_ALU_CODE
  };

  // ALU op flags. Operand a is `arg` and operand b is `imm`: a byte
  // offset into the MMX register file (8 * register), an arena address
  // (kAMem / kBMem, unrouted codes only) or a NativeTrace::gathers index
  // (kAGather / kBGather, routed codes only).
  static constexpr uint8_t kCountImm = 1;  // shift count is `src`, not b
  static constexpr uint8_t kAMem = 2;
  static constexpr uint8_t kBMem = 4;
  static constexpr uint8_t kAGather = 8;
  static constexpr uint8_t kBGather = 16;

  // Set-immediate / scalar-store value, GP immediate or shift amount, or
  // an ALU op's operand b.
  uint64_t imm = 0;
  // Loads and stores: the arena address. ALU ops: operand a.
  uint32_t arg = 0;
  Code code = Code::kSetImm;
  uint8_t dst = 0;
  // Stores and GP ops: the source register. ALU ops: the immediate shift
  // count (kCountImm).
  uint8_t src = 0;
  uint8_t flags = 0;
};
static_assert(sizeof(NativeOp) <= 16,
              "a trace holds one op per dynamic instruction");

// The immutable lowering product cached alongside a PreparedProgram.
struct NativeTrace {
  std::vector<NativeOp> ops;
  // Deduplicated gather plans referenced by routed ops. Routes are control
  // state (SPU microprogram words), never data, which is why they can be
  // resolved at prepare time.
  std::vector<GatherPlan> gathers;
  // Dynamic instructions of the source program this trace replaces
  // (reported as KernelRun::stats.instructions for parity with the
  // simulator's accounting).
  uint64_t source_instructions = 0;
  // The arena as LoweringSpec::init left it, captured before the walk.
  // Restoring it (sim::Memory::restore) is equivalent to zeroing the arena
  // and re-running init, at the cost of the pages involved only.
  sim::MemoryImage image;
  // What run_trace checks and marks once per replay instead of per op,
  // besides the arena size (image.size): the byte range [span_lo, span_hi)
  // covering every load and store (empty when there are none), and one
  // bit per sim::Memory page a store writes.
  uint64_t span_lo = 0;
  uint64_t span_hi = 0;
  std::vector<uint64_t> written_pages;
};

// Replay the trace. st.mem must hold the trace's image (or, equivalently,
// the arena the kernel's init_memory populated) plus any bind_input;
// st.regs should start zeroed (architectural reset state, matching a
// fresh sim::Machine). Throws std::invalid_argument, before writing
// anything, when st.mem is not an arena of t.image.size bytes or a device
// window overlaps the trace's span.
void run_trace(const NativeTrace& t, NativeState& st);

// Rewrite `t` into an equivalent trace with fewer ops; backend::lower()
// ends with it. Replaying the result leaves the arena, MMX and GP
// registers byte-identical to replaying `t`, for any arena contents: the
// pass moves where operands are read from and never evaluates data.
//  * A routed operand whose gather copies one whole register becomes a
//    read of that register; an op left with no gathered operand becomes
//    unrouted.
//  * A kLoad64 is dropped, and each of its readers reads the 8 arena bytes
//    itself, when its register is overwritten before the trace ends (the
//    end reads every register), every read of the loaded value is an
//    operand of an unrouted ALU op, and no store touches those bytes
//    before the last such read.
// One forward sweep; span, image and written pages are unchanged.
void optimize_trace(NativeTrace& t);

// -- Lowering building blocks (used by lowering.cpp; exposed for tests) ------

// Append the gather plan for one operand (0 = a, 1 = b) of a routed op
// whose architecturally named register for that operand is `reg`, through
// the route's U-pipe slice. Returns its 1-based NativeTrace::gathers index
// for append_alu. Throws std::logic_error when a selector addresses
// outside the register file.
[[nodiscard]] uint32_t append_gather(NativeTrace& t, const core::Route& r,
                                     int operand, uint8_t reg);

// Trace-builder helpers: each appends one pre-resolved op.
//
// MMX plane:
void append_load64(NativeTrace& t, uint8_t dst, uint32_t addr);
void append_load32(NativeTrace& t, uint8_t dst, uint32_t addr);
void append_store64(NativeTrace& t, uint8_t src, uint32_t addr);
void append_store32(NativeTrace& t, uint8_t src, uint32_t addr);
void append_set_imm(NativeTrace& t, uint8_t dst, uint64_t value);
void append_scalar_store(NativeTrace& t, int width_bytes, uint32_t addr,
                         uint64_t value);
// gather_a / gather_b: append_gather indices, 0 for an unrouted operand.
void append_alu(NativeTrace& t, const isa::Inst& in, uint32_t gather_a = 0,
                uint32_t gather_b = 0);
// Deferred scalar (GP) plane — data-dependent scalar computation the
// lowering walker could not fold away:
void append_gp_set(NativeTrace& t, uint8_t dst, uint64_t value);
void append_gp_mov(NativeTrace& t, uint8_t dst, uint8_t src);
// SAdd/SSub/SMul/SAnd/SOr/SXor:
void append_gp_binop(NativeTrace& t, isa::Op op, uint8_t dst, uint8_t src);
// SAddi/SSubi:
void append_gp_immop(NativeTrace& t, isa::Op op, uint8_t dst, int64_t imm);
// SShli/SShri/SSrai:
void append_gp_shift(NativeTrace& t, isa::Op op, uint8_t dst, uint8_t imm8);
// SLoad16/32/64 / SStore16/32/64 at a resolved address:
void append_gp_load(NativeTrace& t, isa::Op op, uint8_t dst, uint32_t addr);
void append_gp_store(NativeTrace& t, isa::Op op, uint8_t src, uint32_t addr);
// The MovdFromMmx / MovdToMmx bridges between the planes:
void append_gp_from_mmx(NativeTrace& t, uint8_t gp_dst, uint8_t mm_src);
void append_mmx_from_gp(NativeTrace& t, uint8_t mm_dst, uint8_t gp_src);

}  // namespace subword::backend
