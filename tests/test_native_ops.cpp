// test_native_ops.cpp — per-op differential test of the native replay loop.
//
// Every MMX data op is lowered into a one-op trace and replayed on an
// edge-biased register file, then compared with the oracle the simulator
// uses: core::apply_route for each routed operand, then sim::mmx_alu. Each
// op runs in every operand form the replay has: registers; operand a, b or
// both gathered through a route (run gathers, including the §6 zero and
// sign-fill selectors); operand a renamed to another register; and operand
// a, b or both read from the arena. Every shift runs with its count from
// imm8 and from a register. The pass that produces the renamed and memory
// forms, backend::optimize_trace, is checked here too: each legality rule
// on a hand-built trace, against the same trace replayed unoptimised. The
// whole-kernel differentials (test_backend_native, test_fuzz_differential)
// cover ops in context; this suite pins each replay case on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
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

// Where the op's operands come from. kRenameA routes a through a copy of
// one whole register, which optimize_trace turns into a register read. The
// kMem forms load an operand's register just before the op and overwrite
// it after, which lets optimize_trace turn the load into a memory operand.
enum class Form { kRegs, kRouteA, kRouteB, kRouteAB, kRenameA, kMemA, kMemB,
                  kMemAB };
constexpr std::array<Form, 8> kForms = {
    Form::kRegs,    Form::kRouteA, Form::kRouteB, Form::kRouteAB,
    Form::kRenameA, Form::kMemA,   Form::kMemB,   Form::kMemAB};
constexpr std::array<const char*, 8> kFormNames = {
    "regs", "route-a", "route-b", "route-ab", "rename-a", "mem-a", "mem-b",
    "mem-ab"};

bool routes_a(Form f) { return f == Form::kRouteA || f == Form::kRouteAB; }
bool routes_b(Form f) { return f == Form::kRouteB || f == Form::kRouteAB; }
bool loads_a(Form f) { return f == Form::kMemA || f == Form::kMemAB; }
bool loads_b(Form f) { return f == Form::kMemB || f == Form::kMemAB; }

struct Case {
  Op op;
  Form form;
  bool count_imm;
};

std::string name_of(const Case& c) {
  return std::string(isa::op_name(c.op)) + " " +
         kFormNames[static_cast<size_t>(c.form)] +
         (c.count_imm ? " imm-count" : "");
}

// Replay one op `iters` times on fresh random states and compare every
// register with the oracle, before and after optimize_trace.
void check(const Case& c, int iters) {
  SCOPED_TRACE(name_of(c));
  ref::Rng rng(0x5EED0000 + static_cast<uint64_t>(c.op) * 16 +
               static_cast<uint64_t>(c.form) * 2 + (c.count_imm ? 1 : 0));
  for (int iter = 0; iter < iters; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    sim::MmxRegFile regs;
    for (auto& r : regs.mm) r = edge_value(rng);
    sim::Memory mem(sim::Memory::kPageBytes);
    const auto addr_a = static_cast<uint32_t>(rng.next() % (mem.size() - 8));
    const auto addr_b = static_cast<uint32_t>(rng.next() % (mem.size() - 8));
    mem.write64(addr_a, edge_value(rng).bits());
    mem.write64(addr_b, edge_value(rng).bits());
    isa::Inst in;
    in.op = c.op;
    in.dst = static_cast<uint8_t>(rng.next() % isa::kNumMmxRegs);
    in.src = static_cast<uint8_t>(rng.next() % isa::kNumMmxRegs);
    if (c.form == Form::kMemAB && in.src == in.dst) {
      in.src = static_cast<uint8_t>((in.dst + 1) % isa::kNumMmxRegs);
    }
    if (is_shift(c.op)) {
      const uint64_t count = kCounts[rng.next() % kCounts.size()];
      if (c.count_imm) {
        in.src_is_imm = true;
        in.imm8 = static_cast<uint8_t>(count);
      } else if (rng.next() % 2 == 0) {
        regs.mm[in.src] = Vec64{count};
        mem.write64(addr_b, count);
      }
    }
    const std::vector<uint8_t> arena(mem.bytes().begin(), mem.bytes().end());
    Route r;
    if (routes_a(c.form)) route_operand(r, 0, rng);
    if (routes_b(c.form)) route_operand(r, 1, rng);
    const auto renamed = static_cast<uint8_t>(rng.next() % isa::kNumMmxRegs);
    if (c.form == Form::kRenameA) {
      std::array<uint8_t, core::kOperandBytes> sel{};
      for (int i = 0; i < core::kOperandBytes; ++i) {
        sel[static_cast<size_t>(i)] = static_cast<uint8_t>(8 * renamed + i);
      }
      r.set_operand_both_pipes(0, sel);
    }

    // The trace, and the oracle's register file step by step beside it.
    backend::NativeTrace t;
    t.image.size = mem.size();
    sim::MmxRegFile want = regs;
    if (loads_a(c.form)) {
      backend::append_load64(t, in.dst, addr_a);
      want.write(in.dst, Vec64{mem.read64(addr_a)});
    }
    if (loads_b(c.form)) {
      backend::append_load64(t, in.src, addr_b);
      want.write(in.src, Vec64{mem.read64(addr_b)});
    }
    const bool gather_a = routes_a(c.form) || c.form == Form::kRenameA;
    const uint32_t ga = gather_a ? backend::append_gather(t, r, 0, in.dst) : 0;
    const uint32_t gb =
        routes_b(c.form) ? backend::append_gather(t, r, 1, in.src) : 0;
    backend::append_alu(t, in, ga, gb);
    Vec64 a = want.read(in.dst);
    Vec64 b = want.read(in.src);
    if (gather_a) a = core::apply_route(r, sim::Pipe::U, 0, want, a);
    if (routes_b(c.form)) b = core::apply_route(r, sim::Pipe::U, 1, want, b);
    const uint64_t count = in.src_is_imm ? in.imm8 : b.bits();
    want.write(in.dst, sim::mmx_alu(c.op, a, b, count));
    if (loads_b(c.form) && in.src != in.dst) {
      backend::append_set_imm(t, in.src, 0);
      want.write(in.src, Vec64{0});
    }

    const backend::NativeTrace plain = t;
    backend::optimize_trace(t);
    const backend::NativeTrace& optimised = t;
    for (const backend::NativeTrace* trace : {&plain, &optimised}) {
      const std::string what = trace == &t ? "optimised" : "as appended";
      mem.write_span<uint8_t>(0, arena);
      backend::NativeState st;
      st.regs = regs;
      st.mem = &mem;
      backend::run_trace(*trace, st);
      for (int reg = 0; reg < isa::kNumMmxRegs; ++reg) {
        const auto i = static_cast<uint8_t>(reg);
        ASSERT_EQ(st.regs.read(i).bits(), want.read(i).bits())
            << what << ": MM" << reg << " a=" << swar::to_hex(a)
            << " b=" << swar::to_hex(b) << " count=" << count << " dst=MM"
            << int{in.dst} << " src=MM" << int{in.src};
      }
      ASSERT_TRUE(std::equal(arena.begin(), arena.end(), mem.bytes().begin()))
          << what << ": the arena changed";
    }

    // The optimised trace has the form under test.
    const auto alu = std::find_if(t.ops.begin(), t.ops.end(), [](const auto& o) {
      return o.code != backend::NativeOp::Code::kSetImm;
    });
    ASSERT_NE(alu, t.ops.end());
    const uint8_t gathered =
        backend::NativeOp::kAGather | backend::NativeOp::kBGather;
    // A random route may happen to copy one whole register, which the
    // pass renames.
    const auto partial = [&](uint32_t id) {
      if (id == 0) return false;
      const backend::GatherPlan& g = plain.gathers[id - 1];
      return g.runs != 1 || g.run[0].keep != ~0ull;
    };
    EXPECT_EQ((alu->flags & gathered) != 0,
              partial(ga) || (partial(gb) && !c.count_imm));
    // With src == dst, both operands read the one loaded register.
    const bool same = in.src == in.dst;
    EXPECT_EQ((alu->flags & backend::NativeOp::kAMem) != 0,
              loads_a(c.form) || (loads_b(c.form) && same));
    EXPECT_EQ((alu->flags & backend::NativeOp::kBMem) != 0,
              !c.count_imm && (loads_b(c.form) || (loads_a(c.form) && same)));
    for (const auto& o : t.ops) {
      EXPECT_NE(o.code, backend::NativeOp::Code::kLoad64) << "load kept";
    }
  }
}

TEST(NativeOps, EveryAluOpMatchesTheSimulatorOracle) {
  const auto ops = alu_ops();
  ASSERT_EQ(ops.size(), 45u);
  for (const Op op : ops) {
    for (const Form form : kForms) {
      check({op, form, false}, 300);
      if (is_shift(op)) check({op, form, true}, 300);
    }
  }
}

// Run gathers against the byte-by-byte route semantics, with selectors
// crowded into the last register (register-file bytes 56-63) and the sign
// fills that read them: every run there must stay inside the register file.
TEST(NativeOps, RunGathersMatchTheByteLoopAtTheEndOfTheRegisterFile) {
  ref::Rng rng(0x6A7E);
  for (int iter = 0; iter < 4000; ++iter) {
    sim::MmxRegFile regs;
    for (auto& r : regs.mm) r = edge_value(rng);
    std::array<uint8_t, core::kOperandBytes> sel{};
    for (auto& s : sel) {
      switch (rng.next() % 6) {
        case 0: s = Route::kStraight; break;
        case 1: s = Route::kZero; break;
        case 2: s = Route::kSignExtend; break;
        default: s = static_cast<uint8_t>(56 + rng.next() % 8); break;
      }
    }
    if (iter < 64) {
      // A run ending at byte 63, then sign fills.
      for (int i = 0; i < core::kOperandBytes; ++i) {
        const int lead = iter % 8;
        sel[static_cast<size_t>(i)] =
            i <= lead ? static_cast<uint8_t>(63 - lead + i) : Route::kSignExtend;
      }
    }
    Route r;
    r.set_operand_both_pipes(1, sel);
    isa::Inst in;
    in.op = Op::MovqRR;
    in.dst = isa::MM0;
    in.src = isa::MM7;
    backend::NativeTrace t;
    const uint32_t gb = backend::append_gather(t, r, 1, in.src);
    ASSERT_LE(t.gathers.back().runs, core::kOperandBytes);
    backend::append_alu(t, in, 0, gb);
    sim::Memory mem(sim::Memory::kPageBytes);
    t.image.size = mem.size();
    backend::NativeState st;
    st.regs = regs;
    st.mem = &mem;
    backend::run_trace(t, st);
    const Vec64 want =
        core::apply_route(r, sim::Pipe::U, 1, regs, regs.read(in.src));
    ASSERT_EQ(st.regs.read(isa::MM0).bits(), want.bits())
        << "iteration " << iter << " got " << swar::to_hex(st.regs.read(0))
        << " want " << swar::to_hex(want);
  }
}

TEST(NativeOps, GatherRejectsSelectorsOutsideTheRegisterFile) {
  Route r;
  r.sel[3] = 64;
  backend::NativeTrace t;
  EXPECT_THROW((void)backend::append_gather(t, r, 0, isa::MM0),
               std::logic_error);
}

// -- optimize_trace legality ---------------------------------------------------
// Hand-built traces around one kLoad64 of MM1 from kAt, each with one thing
// that must keep the load (or, as a control, that must not). Every trace is
// replayed as appended and optimised on the same random arena and registers.

constexpr uint32_t kAt = 0x100;

isa::Inst alu(Op op, uint8_t dst, uint8_t src) {
  isa::Inst in;
  in.op = op;
  in.dst = dst;
  in.src = src;
  return in;
}

size_t loads64(const backend::NativeTrace& t) {
  return static_cast<size_t>(
      std::count_if(t.ops.begin(), t.ops.end(), [](const auto& op) {
        return op.code == backend::NativeOp::Code::kLoad64;
      }));
}

// Optimise `t` and return it, after checking that both versions leave the
// arena, MMX and GP registers byte-identical.
backend::NativeTrace optimised(backend::NativeTrace t) {
  sim::Memory mem(sim::Memory::kPageBytes);
  t.image.size = mem.size();
  const backend::NativeTrace plain = t;
  backend::optimize_trace(t);
  ref::Rng rng(0x0B7);
  std::vector<uint8_t> arena(mem.size());
  for (auto& b : arena) b = static_cast<uint8_t>(rng.next());
  backend::NativeState start;
  for (auto& r : start.regs.mm) r = edge_value(rng);
  for (auto& g : start.gp) g = rng.next();

  std::vector<std::vector<uint8_t>> arenas;
  std::vector<backend::NativeState> ends;
  for (const backend::NativeTrace* trace : {&plain, &std::as_const(t)}) {
    mem.write_span<uint8_t>(0, arena);
    backend::NativeState st = start;
    st.mem = &mem;
    backend::run_trace(*trace, st);
    arenas.emplace_back(mem.bytes().begin(), mem.bytes().end());
    ends.push_back(st);
  }
  EXPECT_EQ(arenas[0], arenas[1]) << "the arenas differ";
  for (int r = 0; r < isa::kNumMmxRegs; ++r) {
    EXPECT_EQ(ends[0].regs.mm[static_cast<size_t>(r)].bits(),
              ends[1].regs.mm[static_cast<size_t>(r)].bits())
        << "MM" << r;
  }
  EXPECT_EQ(ends[0].gp, ends[1].gp) << "the GP registers differ";
  return t;
}

// load MM1; <between>; paddw MM0, MM1; psubw MM2, MM1; <after>;
// MM1 overwritten unless `live_at_end`.
template <typename Between, typename After>
backend::NativeTrace around_load(Between between, After after,
                                 bool live_at_end = false) {
  backend::NativeTrace t;
  backend::append_load64(t, isa::MM1, kAt);
  between(t);
  backend::append_alu(t, alu(Op::Paddw, isa::MM0, isa::MM1));
  backend::append_alu(t, alu(Op::Psubw, isa::MM2, isa::MM1));
  after(t);
  if (!live_at_end) backend::append_set_imm(t, isa::MM1, 7);
  return t;
}

const auto kNothing = [](backend::NativeTrace&) {};

TEST(OptimizeTrace, FoldsALoadReadOnlyByUnroutedAluOps) {
  const auto t = optimised(around_load(kNothing, kNothing));
  EXPECT_EQ(loads64(t), 0u);
  ASSERT_EQ(t.ops.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(t.ops[static_cast<size_t>(i)].flags, backend::NativeOp::kBMem);
    EXPECT_EQ(t.ops[static_cast<size_t>(i)].imm, kAt);
  }
}

TEST(OptimizeTrace, AStoreToTheLoadedBytesBlocksTheFold) {
  using Store = void (*)(backend::NativeTrace&);
  // Each overlaps [kAt, kAt + 8) in one byte at least.
  const std::vector<std::pair<const char*, Store>> blocking = {
      {"movq store", [](auto& t) { backend::append_store64(t, isa::MM3, kAt + 7); }},
      {"movd store", [](auto& t) { backend::append_store32(t, isa::MM3, kAt - 3); }},
      {"scalar store", [](auto& t) { backend::append_scalar_store(t, 2, kAt + 6, 1); }},
      {"GP store", [](auto& t) { backend::append_gp_store(t, Op::SStore16, isa::R2, kAt - 1); }},
  };
  for (const auto& [what, store] : blocking) {
    SCOPED_TRACE(what);
    EXPECT_EQ(loads64(optimised(around_load(store, kNothing))), 1u);
    // After the last read, the same store is harmless.
    EXPECT_EQ(loads64(optimised(around_load(kNothing, store))), 0u);
  }
  // Stores next to the loaded bytes do not block.
  EXPECT_EQ(loads64(optimised(around_load(
                [](auto& t) {
                  backend::append_store64(t, isa::MM3, kAt + 8);
                  backend::append_scalar_store(t, 8, kAt - 8, 1);
                },
                kNothing))),
            0u);
}

TEST(OptimizeTrace, ARegisterLiveAtTheEndKeepsItsLoad) {
  EXPECT_EQ(loads64(optimised(around_load(kNothing, kNothing, true))), 1u);
}

TEST(OptimizeTrace, ARegisterReadByARoutedOpKeepsItsLoad) {
  // MM1's bytes 0-3, zero-extended, as operand b of a routed op.
  const auto gathered = [](backend::NativeTrace& t) {
    Route r;
    r.set_operand_both_pipes(1, {8, 9, 10, 11, Route::kZero, Route::kZero,
                                 Route::kZero, Route::kZero});
    const uint32_t gb = backend::append_gather(t, r, 1, isa::MM4);
    backend::append_alu(t, alu(Op::Paddw, isa::MM5, isa::MM4), 0, gb);
  };
  EXPECT_EQ(loads64(optimised(around_load(gathered, kNothing))), 1u);
  // MM1 as the plain operand of an op whose other operand is routed.
  const auto beside = [](backend::NativeTrace& t) {
    Route r;
    r.set_operand_both_pipes(0, {Route::kZero, 1, 2, 3, 4, 5, 6, 7});
    const uint32_t ga = backend::append_gather(t, r, 0, isa::MM5);
    backend::append_alu(t, alu(Op::Paddw, isa::MM5, isa::MM1), ga, 0);
  };
  EXPECT_EQ(loads64(optimised(around_load(beside, kNothing))), 1u);
}

TEST(OptimizeTrace, NonAluReadersKeepTheLoad) {
  const auto stored = [](backend::NativeTrace& t) {
    backend::append_store64(t, isa::MM1, 0x200);
  };
  EXPECT_EQ(loads64(optimised(around_load(stored, kNothing))), 1u);
  const auto moved = [](backend::NativeTrace& t) {
    backend::append_gp_from_mmx(t, isa::R3, isa::MM1);
  };
  EXPECT_EQ(loads64(optimised(around_load(moved, kNothing))), 1u);
}

TEST(OptimizeTrace, WholeRegisterRoutesBecomeRegisterReads) {
  backend::NativeTrace t;
  Route r;
  r.set_operand_both_pipes(0, {48, 49, 50, 51, 52, 53, 54, 55});
  r.set_operand_both_pipes(1, {Route::kStraight, Route::kZero, 2, 3, 4, 5, 6,
                               7});
  const uint32_t ga = backend::append_gather(t, r, 0, isa::MM0);
  const uint32_t gb = backend::append_gather(t, r, 1, isa::MM2);
  backend::append_alu(t, alu(Op::Psubw, isa::MM0, isa::MM2), ga, gb);
  backend::append_alu(t, alu(Op::Paddw, isa::MM1, isa::MM2), ga, 0);
  t = optimised(t);
  ASSERT_EQ(t.ops.size(), 2u);
  // Operand a reads MM6 in both; b stays gathered in the first.
  EXPECT_EQ(t.ops[0].flags, backend::NativeOp::kBGather);
  EXPECT_EQ(t.ops[0].arg, 8u * isa::MM6);
  EXPECT_EQ(t.ops[1].flags, 0);
  EXPECT_EQ(t.ops[1].arg, 8u * isa::MM6);
  EXPECT_EQ(t.ops[1].code, backend::NativeOp::Code::kPaddw);
}

}  // namespace
}  // namespace subword
