#include "backend/native.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "swar/swar.h"

namespace subword::backend {

namespace sw = swar::active;
using isa::Op;
using swar::Vec64;
using Code = NativeOp::Code;

// ALU register operands and gather plans address the register file by
// byte, as the SPU register does, byte 0 of MM0 first: its in-memory order
// on a little-endian host.
static_assert(std::endian::native == std::endian::little);
static_assert(sizeof(sim::MmxRegFile) == isa::kNumMmxRegs * 8);

namespace {

// The ALU codes: one per op from kFirstAlu on, then the routed ones.
constexpr auto kFirstAlu =
    static_cast<uint8_t>(static_cast<uint8_t>(Code::kMmxFromGp) + 1);
#define SUBWORD_ALU_COUNT(name, result) +1
constexpr uint8_t kAluOps = 0 SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_COUNT);
#undef SUBWORD_ALU_COUNT
static_assert(kFirstAlu + 2 * kAluOps <= 256, "codes fit the code byte");

constexpr uint8_t kGathered = NativeOp::kAGather | NativeOp::kBGather;

bool is_routed(Code c) {
  return static_cast<uint8_t>(c) >= kFirstAlu + kAluOps;
}

template <typename T>
T load(const uint8_t* m, uint32_t addr) {
  T v;
  std::memcpy(&v, m + addr, sizeof v);
  return v;
}

template <typename T>
void store(uint8_t* m, uint32_t addr, T v) {
  std::memcpy(m + addr, &v, sizeof v);
}

// Sign-extend a loaded signed value to 64 bits (SLoad16/32).
template <typename T>
uint64_t sext(T v) {
  return static_cast<uint64_t>(static_cast<int64_t>(v));
}

Vec64 gather(const GatherPlan& g, const Vec64* mm) {
  uint64_t v = 0;
  for (int i = 0; i < g.runs; ++i) {
    const GatherPlan::Run& r = g.run[static_cast<size_t>(i)];
    const uint64_t x = std::rotl(mm[r.reg].bits(), r.rot) & r.keep;
    // x's highest byte is the run's last: x >> sign_bit is its sign bit.
    v |= x | (r.sign & (0 - (x >> r.sign_bit)));
  }
  return Vec64{v};
}

uint8_t mmx_reg(uint8_t r) {
  if (r >= isa::kNumMmxRegs) {
    throw std::logic_error("MMX register out of range");
  }
  return r;
}

uint8_t gp_reg(uint8_t r) {
  if (r >= isa::kNumGpRegs) throw std::logic_error("GP register out of range");
  return r;
}

void push(NativeTrace& t, Code code, uint8_t dst, uint8_t src,
          uint64_t imm = 0, uint32_t arg = 0, uint8_t flags = 0) {
  t.ops.push_back(NativeOp{imm, arg, code, dst, src, flags});
}

// An op reading or writing `len` arena bytes at `addr`: widen the trace's
// span and, for stores, mark the pages written.
void push_access(NativeTrace& t, Code code, uint8_t dst, uint8_t src,
                 uint32_t addr, uint64_t len, bool is_store,
                 uint64_t imm = 0) {
  const uint64_t end = uint64_t{addr} + len;
  const bool first = t.span_lo == t.span_hi;
  t.span_lo = first ? addr : std::min<uint64_t>(t.span_lo, addr);
  t.span_hi = first ? end : std::max(t.span_hi, end);
  if (is_store) {
    const uint64_t last = (end - 1) / sim::Memory::kPageBytes;
    for (uint64_t p = addr / sim::Memory::kPageBytes; p <= last; ++p) {
      if (p / 64 >= t.written_pages.size()) t.written_pages.resize(p / 64 + 1);
      t.written_pages[p / 64] |= uint64_t{1} << (p % 64);
    }
  }
  push(t, code, dst, src, imm, addr);
}

}  // namespace

void run_trace(const NativeTrace& t, NativeState& st) {
  sim::Memory& mem = *st.mem;
  if (mem.size() != t.image.size || t.span_hi > t.image.size) {
    throw std::invalid_argument(
        "run_trace: trace lowered for a " + std::to_string(t.image.size) +
        "-byte arena, replayed on " + std::to_string(mem.size()) + " bytes");
  }
  if (t.span_lo < t.span_hi && mem.device_overlaps(t.span_lo, t.span_hi)) {
    throw std::invalid_argument(
        "run_trace: a device window overlaps the trace's arena accesses");
  }
  uint8_t* const m = mem.mark_written(t.written_pages);
  Vec64* const mm = st.regs.mm.data();
  const auto* const regs = reinterpret_cast<const uint8_t*>(mm);
  uint64_t* const gp = st.gp.data();
  const GatherPlan* const gathers = t.gathers.data();
  // ALU operands (NativeOp::arg, NativeOp::imm): a register-file byte
  // offset, an arena address, or a gather plan index.
  const auto direct = [&](bool in_arena, uint64_t at) {
    return Vec64{
        load<uint64_t>(in_arena ? m : regs, static_cast<uint32_t>(at))};
  };
  const auto routed = [&](bool gathered, uint64_t at) {
    return gathered ? gather(gathers[at], mm)
                    : Vec64{load<uint64_t>(regs, static_cast<uint32_t>(at))};
  };

  for (const NativeOp& op : t.ops) {
    switch (op.code) {
      case Code::kLoad64: mm[op.dst] = Vec64{load<uint64_t>(m, op.arg)}; break;
      case Code::kLoad32: mm[op.dst] = Vec64{load<uint32_t>(m, op.arg)}; break;
      case Code::kStore64: store(m, op.arg, mm[op.src].bits()); break;
      case Code::kStore32:
        store(m, op.arg, static_cast<uint32_t>(mm[op.src].bits()));
        break;
      case Code::kSetImm: mm[op.dst] = Vec64{op.imm}; break;
      case Code::kSStore16:
        store(m, op.arg, static_cast<uint16_t>(op.imm));
        break;
      case Code::kSStore32:
        store(m, op.arg, static_cast<uint32_t>(op.imm));
        break;
      case Code::kSStore64: store(m, op.arg, op.imm); break;

      // Deferred scalar plane: exact replicas of the simulator's GP
      // semantics (sim/machine.cpp) for the data-dependent slice of the
      // scalar stream.
      case Code::kGpSet: gp[op.dst] = op.imm; break;
      case Code::kGpMov: gp[op.dst] = gp[op.src]; break;
      case Code::kGpAdd: gp[op.dst] += gp[op.src]; break;
      case Code::kGpSub: gp[op.dst] -= gp[op.src]; break;
      case Code::kGpMul: gp[op.dst] *= gp[op.src]; break;
      case Code::kGpAnd: gp[op.dst] &= gp[op.src]; break;
      case Code::kGpOr: gp[op.dst] |= gp[op.src]; break;
      case Code::kGpXor: gp[op.dst] ^= gp[op.src]; break;
      case Code::kGpAddi: gp[op.dst] += op.imm; break;
      case Code::kGpSubi: gp[op.dst] -= op.imm; break;
      case Code::kGpShli: gp[op.dst] <<= op.imm; break;
      case Code::kGpShri: gp[op.dst] >>= op.imm; break;
      case Code::kGpSrai:
        gp[op.dst] = static_cast<uint64_t>(static_cast<int64_t>(gp[op.dst]) >>
                                           op.imm);
        break;
      case Code::kGpLoad16: gp[op.dst] = sext(load<int16_t>(m, op.arg)); break;
      case Code::kGpLoad32: gp[op.dst] = sext(load<int32_t>(m, op.arg)); break;
      case Code::kGpLoad64: gp[op.dst] = load<uint64_t>(m, op.arg); break;
      case Code::kGpStore16:
        store(m, op.arg, static_cast<uint16_t>(gp[op.src]));
        break;
      case Code::kGpStore32:
        store(m, op.arg, static_cast<uint32_t>(gp[op.src]));
        break;
      case Code::kGpStore64: store(m, op.arg, gp[op.src]); break;
      case Code::kGpFromMmx:
        gp[op.dst] = mm[op.src].bits() & 0xFFFFFFFFull;
        break;
      case Code::kMmxFromGp:
        mm[op.dst] = Vec64{gp[op.src] & 0xFFFFFFFFull};
        break;

      // MMX data ops. Both operands are read before the result is
      // written; shift counts come from the post-route operand, exactly as
      // the simulator computes them (sim/machine.cpp).
#define SUBWORD_ALU_CASE(name, result)                                        \
  case Code::k##name: {                                                       \
    [[maybe_unused]] const Vec64 a =                                          \
        direct((op.flags & NativeOp::kAMem) != 0, op.arg);                    \
    const Vec64 b = direct((op.flags & NativeOp::kBMem) != 0, op.imm);        \
    [[maybe_unused]] const uint64_t count =                                   \
        (op.flags & NativeOp::kCountImm) != 0 ? op.src : b.bits();            \
    mm[op.dst] = result;                                                      \
    break;                                                                    \
  }                                                                           \
  case Code::k##name##Routed: {                                               \
    [[maybe_unused]] const Vec64 a =                                          \
        routed((op.flags & NativeOp::kAGather) != 0, op.arg);                 \
    const Vec64 b = routed((op.flags & NativeOp::kBGather) != 0, op.imm);     \
    [[maybe_unused]] const uint64_t count =                                   \
        (op.flags & NativeOp::kCountImm) != 0 ? op.src : b.bits();            \
    mm[op.dst] = result;                                                      \
    break;                                                                    \
  }
      SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CASE)
#undef SUBWORD_ALU_CASE
    }
  }
}

void optimize_trace(NativeTrace& t) {
  // Per gather plan: the registers it reads, and the one register it
  // copies whole (-1 when it is not such a copy).
  std::vector<uint8_t> gather_reads(t.gathers.size(), 0);
  std::vector<int> copy_of(t.gathers.size(), -1);
  for (size_t g = 0; g < t.gathers.size(); ++g) {
    const GatherPlan& plan = t.gathers[g];
    for (int i = 0; i < plan.runs; ++i) {
      gather_reads[g] |= static_cast<uint8_t>(
          1u << plan.run[static_cast<size_t>(i)].reg);
    }
    if (plan.runs == 1 && plan.run[0].keep == ~uint64_t{0}) {
      copy_of[g] = plan.run[0].reg;
    }
  }

  // What the sweep knows of each MMX register's value, one bit per
  // register: a kLoad64 set it (`load` and `addr` say which), a store has
  // touched those bytes since, or it was read other than as an unrouted
  // ALU operand. `readers` lists the unrouted ALU ops that read it: op
  // index and the flag (kAMem or kBMem) that makes the operand a memory
  // read.
  unsigned loaded = 0;
  unsigned clobbered = 0;
  unsigned blocked = 0;
  std::array<size_t, isa::kNumMmxRegs> load{};
  std::array<uint32_t, isa::kNumMmxRegs> addr{};
  std::array<std::vector<std::pair<size_t, uint8_t>>, isa::kNumMmxRegs>
      readers;
  std::vector<uint8_t> dropped(t.ops.size(), 0);
  // Register r is overwritten: drop the load that set it if every read of
  // its value can take the arena bytes instead.
  const auto overwrite = [&](uint8_t r) {
    const unsigned bit = 1u << r;
    if ((loaded & bit) != 0) {
      if ((blocked & bit) == 0) {
        for (const auto& [i, mem_flag] : readers[r]) {
          NativeOp& op = t.ops[i];
          op.flags |= mem_flag;
          if (mem_flag == NativeOp::kAMem) {
            op.arg = addr[r];
          } else {
            op.imm = addr[r];
          }
        }
        dropped[load[r]] = 1;
      }
      readers[r].clear();
    }
    loaded &= ~bit;
    clobbered &= ~bit;
    blocked &= ~bit;
  };
  const auto read_operand = [&](size_t i, uint64_t offset, uint8_t mem_flag) {
    const auto r = static_cast<size_t>(offset / 8);
    const unsigned bit = 1u << r;
    if ((loaded & bit) == 0) return;
    if ((clobbered & bit) != 0) {
      blocked |= bit;
    } else {
      readers[r].emplace_back(i, mem_flag);
    }
  };
  const auto store = [&](uint32_t at, uint32_t len) {
    for (unsigned m = loaded; m != 0; m &= m - 1) {
      const auto r = static_cast<size_t>(std::countr_zero(m));
      if (at < addr[r] + 8 && addr[r] < at + len) clobbered |= 1u << r;
    }
  };

  for (size_t i = 0; i < t.ops.size(); ++i) {
    NativeOp& op = t.ops[i];
    if (static_cast<uint8_t>(op.code) >= kFirstAlu) {
      // Route -> rename.
      if ((op.flags & NativeOp::kAGather) != 0 && copy_of[op.arg] >= 0) {
        op.arg = 8u * static_cast<uint32_t>(copy_of[op.arg]);
        op.flags &= static_cast<uint8_t>(~NativeOp::kAGather);
      }
      if ((op.flags & NativeOp::kBGather) != 0 && copy_of[op.imm] >= 0) {
        op.imm = 8u * static_cast<uint64_t>(copy_of[op.imm]);
        op.flags &= static_cast<uint8_t>(~NativeOp::kBGather);
      }
      const bool reads_b = (op.flags & NativeOp::kCountImm) == 0;
      if (is_routed(op.code) && (op.flags & kGathered) == 0) {
        op.code = static_cast<Code>(static_cast<uint8_t>(op.code) - kAluOps);
      }
      if (is_routed(op.code)) {
        const auto reads = [&](bool gathered, uint64_t at) -> unsigned {
          return gathered ? gather_reads[at] : 1u << (at / 8);
        };
        blocked |= reads((op.flags & NativeOp::kAGather) != 0, op.arg);
        if (reads_b) {
          blocked |= reads((op.flags & NativeOp::kBGather) != 0, op.imm);
        }
      } else {
        if ((op.flags & NativeOp::kAMem) == 0) {
          read_operand(i, op.arg, NativeOp::kAMem);
        }
        if (reads_b && (op.flags & NativeOp::kBMem) == 0) {
          read_operand(i, op.imm, NativeOp::kBMem);
        }
      }
      overwrite(op.dst);
      continue;
    }
    switch (op.code) {
      case Code::kLoad64:
        overwrite(op.dst);
        loaded |= 1u << op.dst;
        load[op.dst] = i;
        addr[op.dst] = op.arg;
        break;
      case Code::kLoad32:
      case Code::kSetImm:
      case Code::kMmxFromGp:
        overwrite(op.dst);
        break;
      case Code::kStore64:
        blocked |= 1u << op.src;
        store(op.arg, 8);
        break;
      case Code::kStore32:
        blocked |= 1u << op.src;
        store(op.arg, 4);
        break;
      case Code::kGpFromMmx:
        blocked |= 1u << op.src;
        break;
      case Code::kSStore16:
      case Code::kGpStore16:
        store(op.arg, 2);
        break;
      case Code::kSStore32:
      case Code::kGpStore32:
        store(op.arg, 4);
        break;
      case Code::kSStore64:
      case Code::kGpStore64:
        store(op.arg, 8);
        break;
      default:  // GP plane
        break;
    }
  }
  // The end of the trace reads every register: loads still live stay.
  size_t kept = 0;
  for (size_t i = 0; i < t.ops.size(); ++i) {
    t.ops[kept] = t.ops[i];
    kept += dropped[i] == 0;
  }
  t.ops.resize(kept);
}

uint32_t append_gather(NativeTrace& t, const core::Route& r, int operand,
                       uint8_t reg) {
  GatherPlan g;
  const int off = core::bus_offset(sim::Pipe::U, operand);
  // Register-file byte of the nearest earlier output byte that was copied,
  // or -1 when that byte was zeroed (or there is none): a sign fill then
  // reads 0. `run` is the run output byte i - 1 belongs to, if it was
  // copied.
  int prev = -1;
  GatherPlan::Run* run = nullptr;
  for (int i = 0; i < core::kOperandBytes; ++i) {
    const uint8_t s = r.sel[static_cast<size_t>(off + i)];
    const uint64_t lane = uint64_t{0xFF} << (8 * i);
    if (s == core::Route::kZero) {
      prev = -1;
      run = nullptr;
      continue;
    }
    if (s == core::Route::kSignExtend) {
      // The byte at prev ends the latest run.
      if (prev >= 0) g.run[g.runs - 1u].sign |= lane;
      run = nullptr;
      continue;
    }
    const int byte = s == core::Route::kStraight ? mmx_reg(reg) * 8 + i : s;
    if (byte >= isa::kNumMmxRegs * 8) {
      throw std::logic_error("append_gather: selector " + std::to_string(s) +
                             " outside the register file");
    }
    if (run == nullptr || byte != prev + 1 || byte % 8 == 0) {
      run = &g.run[g.runs++];
      run->reg = static_cast<uint8_t>(byte / 8);
      run->rot = static_cast<uint8_t>((8 * (i - byte % 8)) & 63);
    }
    run->keep |= lane;
    run->sign_bit = static_cast<uint8_t>(8 * i + 7);
    prev = byte;
  }
  t.gathers.push_back(g);
  return static_cast<uint32_t>(t.gathers.size());
}

void append_load64(NativeTrace& t, uint8_t dst, uint32_t addr) {
  push_access(t, Code::kLoad64, mmx_reg(dst), 0, addr, 8, false);
}

void append_load32(NativeTrace& t, uint8_t dst, uint32_t addr) {
  push_access(t, Code::kLoad32, mmx_reg(dst), 0, addr, 4, false);
}

void append_store64(NativeTrace& t, uint8_t src, uint32_t addr) {
  push_access(t, Code::kStore64, 0, mmx_reg(src), addr, 8, true);
}

void append_store32(NativeTrace& t, uint8_t src, uint32_t addr) {
  push_access(t, Code::kStore32, 0, mmx_reg(src), addr, 4, true);
}

void append_set_imm(NativeTrace& t, uint8_t dst, uint64_t value) {
  push(t, Code::kSetImm, mmx_reg(dst), 0, value);
}

void append_scalar_store(NativeTrace& t, int width_bytes, uint32_t addr,
                         uint64_t value) {
  Code code;
  switch (width_bytes) {
    case 2: code = Code::kSStore16; break;
    case 4: code = Code::kSStore32; break;
    case 8: code = Code::kSStore64; break;
    default:
      throw std::logic_error("append_scalar_store: bad width");
  }
  push_access(t, code, 0, 0, addr, static_cast<uint64_t>(width_bytes), true,
              value);
}

void append_gp_set(NativeTrace& t, uint8_t dst, uint64_t value) {
  push(t, Code::kGpSet, gp_reg(dst), 0, value);
}

void append_gp_mov(NativeTrace& t, uint8_t dst, uint8_t src) {
  push(t, Code::kGpMov, gp_reg(dst), gp_reg(src));
}

void append_gp_binop(NativeTrace& t, isa::Op o, uint8_t dst, uint8_t src) {
  Code code;
  switch (o) {
    case Op::SAdd: code = Code::kGpAdd; break;
    case Op::SSub: code = Code::kGpSub; break;
    case Op::SMul: code = Code::kGpMul; break;
    case Op::SAnd: code = Code::kGpAnd; break;
    case Op::SOr: code = Code::kGpOr; break;
    case Op::SXor: code = Code::kGpXor; break;
    default:
      throw std::logic_error("append_gp_binop: not a GP binary op");
  }
  push(t, code, gp_reg(dst), gp_reg(src));
}

void append_gp_immop(NativeTrace& t, isa::Op o, uint8_t dst, int64_t imm) {
  Code code;
  switch (o) {
    case Op::SAddi: code = Code::kGpAddi; break;
    case Op::SSubi: code = Code::kGpSubi; break;
    default:
      throw std::logic_error("append_gp_immop: not a GP immediate op");
  }
  push(t, code, gp_reg(dst), 0, static_cast<uint64_t>(imm));
}

void append_gp_shift(NativeTrace& t, isa::Op o, uint8_t dst, uint8_t imm8) {
  Code code;
  switch (o) {
    case Op::SShli: code = Code::kGpShli; break;
    case Op::SShri: code = Code::kGpShri; break;
    case Op::SSrai: code = Code::kGpSrai; break;
    default:
      throw std::logic_error("append_gp_shift: not a GP shift op");
  }
  push(t, code, gp_reg(dst), 0, imm8);
}

void append_gp_load(NativeTrace& t, isa::Op o, uint8_t dst, uint32_t addr) {
  switch (o) {
    case Op::SLoad16:
      return push_access(t, Code::kGpLoad16, gp_reg(dst), 0, addr, 2, false);
    case Op::SLoad32:
      return push_access(t, Code::kGpLoad32, gp_reg(dst), 0, addr, 4, false);
    case Op::SLoad64:
      return push_access(t, Code::kGpLoad64, gp_reg(dst), 0, addr, 8, false);
    default:
      throw std::logic_error("append_gp_load: not a GP load op");
  }
}

void append_gp_store(NativeTrace& t, isa::Op o, uint8_t src, uint32_t addr) {
  switch (o) {
    case Op::SStore16:
      return push_access(t, Code::kGpStore16, 0, gp_reg(src), addr, 2, true);
    case Op::SStore32:
      return push_access(t, Code::kGpStore32, 0, gp_reg(src), addr, 4, true);
    case Op::SStore64:
      return push_access(t, Code::kGpStore64, 0, gp_reg(src), addr, 8, true);
    default:
      throw std::logic_error("append_gp_store: not a GP store op");
  }
}

void append_gp_from_mmx(NativeTrace& t, uint8_t gp_dst, uint8_t mm_src) {
  push(t, Code::kGpFromMmx, gp_reg(gp_dst), mmx_reg(mm_src));
}

void append_mmx_from_gp(NativeTrace& t, uint8_t mm_dst, uint8_t gp_src) {
  push(t, Code::kMmxFromGp, mmx_reg(mm_dst), gp_reg(gp_src));
}

void append_alu(NativeTrace& t, const isa::Inst& in, uint32_t gather_a,
                uint32_t gather_b) {
  if (std::max(gather_a, gather_b) > t.gathers.size()) {
    throw std::logic_error("append_alu: gather index out of range");
  }
  NativeOp op;
  op.dst = mmx_reg(in.dst);
  op.arg = gather_a != 0 ? gather_a - 1 : 8u * op.dst;
  op.flags = gather_a != 0 ? NativeOp::kAGather : 0;
  if (in.src_is_imm) {
    // The count replaces operand b, which reads MM0 unused.
    op.src = in.imm8;
    op.flags |= NativeOp::kCountImm;
  } else {
    op.imm = gather_b != 0 ? gather_b - 1 : 8u * mmx_reg(in.src);
    if (gather_b != 0) op.flags |= NativeOp::kBGather;
  }
  const bool routed_op = (op.flags & kGathered) != 0;
  switch (in.op) {
#define SUBWORD_ALU_CASE(name, result)                          \
  case Op::name:                                                \
    op.code = routed_op ? Code::k##name##Routed : Code::k##name; \
    break;
    SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CASE)
#undef SUBWORD_ALU_CASE
    default:
      throw std::logic_error("append_alu: opcode has no ALU semantics");
  }
  t.ops.push_back(op);
}

}  // namespace subword::backend
