// test_native_ops.cpp — per-op differential test of the native replay loop.
//
// Every MMX data op is lowered into a one-op trace and replayed on an
// edge-biased register file, then compared with the oracle the simulator
// uses: core::apply_route for each routed operand, then sim::mmx_alu. Each
// op runs unrouted, with operand a routed, with operand b routed and with
// both, including the §6 zero and sign-fill selectors, and every shift
// runs with its count from imm8 and from a register. The whole-kernel
// differentials (test_backend_native, test_fuzz_differential) cover ops in
// context; this suite pins each replay case on its own.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "backend/native.h"
#include "core/crossbar.h"
#include "isa/inst.h"
#include "isa/opcodes.h"
#include "ref/workload.h"
#include "sim/exec.h"
#include "sim/memory.h"

namespace subword {
namespace {

using core::Route;
using isa::Op;
using swar::Vec64;

std::vector<Op> alu_ops() {
  std::vector<Op> ops;
  for (int i = 0; i < isa::kOpCount; ++i) {
    const auto op = static_cast<Op>(i);
    if (sim::has_alu_semantics(op)) ops.push_back(op);
  }
  return ops;
}

bool is_shift(Op op) {
  switch (op) {
    case Op::Psllw: case Op::Pslld: case Op::Psllq:
    case Op::Psrlw: case Op::Psrld: case Op::Psrlq:
    case Op::Psraw: case Op::Psrad:
      return true;
    default:
      return false;
  }
}

// A register value biased to lane edges: each lane of a randomly chosen
// width is zero, one, the signed maximum or minimum, all ones, or random.
Vec64 edge_value(ref::Rng& rng) {
  static constexpr std::array<int, 4> kBits = {8, 16, 32, 64};
  const int bits = kBits[rng.next() % kBits.size()];
  const uint64_t mask = bits == 64 ? ~0ull : (1ull << bits) - 1;
  uint64_t v = 0;
  for (int at = 0; at < 64; at += bits) {
    uint64_t lane = 0;
    switch (rng.next() % 6) {
      case 0: lane = 0; break;
      case 1: lane = 1; break;
      case 2: lane = mask >> 1; break;        // signed maximum
      case 3: lane = (mask >> 1) + 1; break;  // signed minimum
      case 4: lane = mask; break;
      default: lane = rng.next() & mask; break;
    }
    v |= lane << at;
  }
  return Vec64{v};
}

// Shift counts around every lane width, and past the widest.
constexpr std::array<uint64_t, 14> kCounts = {
    0, 1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 255, 1ull << 32};

// A random selector for one output byte: straight, a register-file byte,
// or one of the §6 modes. Modes come up often enough that every op meets
// sign fills at byte 0, after a zero, after a data byte and chained.
uint8_t random_selector(ref::Rng& rng) {
  switch (rng.next() % 5) {
    case 0: return Route::kStraight;
    case 1: return Route::kZero;
    case 2: return Route::kSignExtend;
    default: return static_cast<uint8_t>(rng.next() % 64);
  }
}

// Route both pipes of one operand identically, as the lowering requires.
void route_operand(Route& r, int operand, ref::Rng& rng) {
  std::array<uint8_t, core::kOperandBytes> sel{};
  for (auto& s : sel) s = random_selector(rng);
  r.set_operand_both_pipes(operand, sel);
}

struct Case {
  Op op;
  bool route_a;
  bool route_b;
  bool count_imm;
};

std::string name_of(const Case& c) {
  return std::string(isa::op_name(c.op)) + (c.route_a ? " route-a" : "") +
         (c.route_b ? " route-b" : "") + (c.count_imm ? " imm-count" : "");
}

// Replay one op `iters` times on fresh random states and compare every
// register with the oracle.
void check(const Case& c, int iters) {
  SCOPED_TRACE(name_of(c));
  ref::Rng rng(0x5EED0000 + static_cast<uint64_t>(c.op) * 8 +
               (c.route_a ? 1 : 0) + (c.route_b ? 2 : 0) +
               (c.count_imm ? 4 : 0));
  for (int iter = 0; iter < iters; ++iter) {
    sim::MmxRegFile regs;
    for (auto& r : regs.mm) r = edge_value(rng);
    isa::Inst in;
    in.op = c.op;
    in.dst = static_cast<uint8_t>(rng.next() % isa::kNumMmxRegs);
    in.src = static_cast<uint8_t>(rng.next() % isa::kNumMmxRegs);
    if (is_shift(c.op)) {
      const uint64_t count = kCounts[rng.next() % kCounts.size()];
      if (c.count_imm) {
        in.src_is_imm = true;
        in.imm8 = static_cast<uint8_t>(count);
      } else if (rng.next() % 2 == 0) {
        regs.mm[in.src] = Vec64{count};
      }
    }
    Route r;
    if (c.route_a) route_operand(r, 0, rng);
    if (c.route_b) route_operand(r, 1, rng);

    backend::NativeTrace t;
    const uint32_t ga = c.route_a ? backend::append_gather(t, r, 0, in.dst) : 0;
    const uint32_t gb = c.route_b ? backend::append_gather(t, r, 1, in.src) : 0;
    backend::append_alu(t, in, ga, gb);
    sim::Memory mem(sim::Memory::kPageBytes);
    t.image.size = mem.size();
    backend::NativeState st;
    st.regs = regs;
    st.mem = &mem;
    backend::run_trace(t, st);

    Vec64 a = regs.read(in.dst);
    Vec64 b = regs.read(in.src);
    if (c.route_a) a = core::apply_route(r, sim::Pipe::U, 0, regs, a);
    if (c.route_b) b = core::apply_route(r, sim::Pipe::U, 1, regs, b);
    const uint64_t count = in.src_is_imm ? in.imm8 : b.bits();
    sim::MmxRegFile want = regs;
    want.write(in.dst, sim::mmx_alu(c.op, a, b, count));

    for (int reg = 0; reg < isa::kNumMmxRegs; ++reg) {
      const auto i = static_cast<uint8_t>(reg);
      ASSERT_EQ(st.regs.read(i).bits(), want.read(i).bits())
          << "MM" << reg << " after iteration " << iter << ": a="
          << swar::to_hex(a) << " b=" << swar::to_hex(b)
          << " count=" << count << " dst=MM" << int{in.dst} << " src=MM"
          << int{in.src};
    }
  }
}

TEST(NativeOps, EveryAluOpMatchesTheSimulatorOracle) {
  const auto ops = alu_ops();
  ASSERT_EQ(ops.size(), 45u);
  for (const Op op : ops) {
    for (const bool route_a : {false, true}) {
      for (const bool route_b : {false, true}) {
        check({op, route_a, route_b, false}, 300);
        if (is_shift(op)) check({op, route_a, route_b, true}, 300);
      }
    }
  }
}

TEST(NativeOps, GatherRejectsSelectorsOutsideTheRegisterFile) {
  Route r;
  r.sel[3] = 64;
  backend::NativeTrace t;
  EXPECT_THROW((void)backend::append_gather(t, r, 0, isa::MM0),
               std::logic_error);
}

}  // namespace
}  // namespace subword
