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
// registers: output byte i is byte src[i] of the MMX register file (the
// SPU register's byte addressing; a straight byte names the operand's own
// register). Bytes in `keep` take that byte, bytes in `sign` take its sign
// fill (Route::kSignExtend), all other bytes are zero (Route::kZero).
struct GatherPlan {
  std::array<uint8_t, core::kOperandBytes> src{};
  uint64_t keep = 0;  // 0xFF in each byte copied from the register file
  uint64_t sign = 0;  // 0xFF in each sign-filled byte
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
    // One code per MMX data op, then the same ops with routed operands.
#define SUBWORD_ALU_CODE(name, result) k##name,
    SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CODE)
#undef SUBWORD_ALU_CODE
#define SUBWORD_ALU_CODE(name, result) k##name##Routed,
    SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CODE)
#undef SUBWORD_ALU_CODE
  };

  // ALU ops: the shift count is `imm` rather than operand b.
  static constexpr uint8_t kCountImm = 1;

  // Set-immediate / scalar-store value, GP immediate or shift amount, or
  // an ALU op's immediate shift count.
  uint64_t imm = 0;
  // Loads and stores: the arena address. Routed ALU ops: the 1-based
  // NativeTrace::gathers index of operand a in the low half and of
  // operand b in the high half, 0 for an operand that is not routed.
  uint32_t arg = 0;
  Code code = Code::kSetImm;
  uint8_t dst = 0;
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
