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

// Gather plans address the register file as the SPU register does, byte 0
// of MM0 first: its in-memory order on a little-endian host.
static_assert(std::endian::native == std::endian::little);
static_assert(sizeof(sim::MmxRegFile) == isa::kNumMmxRegs * 8);

namespace {

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

Vec64 gather(const GatherPlan& g, const uint8_t* regs) {
  uint64_t v = 0;
  for (int i = 0; i < core::kOperandBytes; ++i) {
    v |= uint64_t{regs[g.src[static_cast<size_t>(i)]]} << (8 * i);
  }
  // A sign byte's src names the byte whose sign it copies.
  const uint64_t fill = ((v & g.sign & 0x8080808080808080ull) >> 7) * 0xFF;
  return Vec64{(v & g.keep) | fill};
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
  // Operand value of a routed op: the gather plan `id` (1-based), or the
  // named register's value when the operand is not routed (id 0).
  const auto routed = [&](uint32_t id, Vec64 named) {
    return id == 0 ? named : gather(gathers[id - 1], regs);
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

      // MMX data ops. A routed op gathers both operands from the register
      // file before writing; shift counts come from the post-route operand,
      // exactly as the simulator computes them (sim/machine.cpp).
#define SUBWORD_ALU_CASE(name, result)                                     \
  case Code::k##name: {                                                    \
    [[maybe_unused]] const Vec64 a = mm[op.dst];                           \
    const Vec64 b = mm[op.src];                                            \
    [[maybe_unused]] const uint64_t count =                                \
        (op.flags & NativeOp::kCountImm) != 0 ? op.imm : b.bits();         \
    mm[op.dst] = result;                                                   \
    break;                                                                 \
  }                                                                        \
  case Code::k##name##Routed: {                                            \
    [[maybe_unused]] const Vec64 a = routed(op.arg & 0xFFFF, mm[op.dst]);  \
    const Vec64 b = routed(op.arg >> 16, mm[op.src]);                      \
    [[maybe_unused]] const uint64_t count =                                \
        (op.flags & NativeOp::kCountImm) != 0 ? op.imm : b.bits();         \
    mm[op.dst] = result;                                                   \
    break;                                                                 \
  }
      SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CASE)
#undef SUBWORD_ALU_CASE
    }
  }
}

uint32_t append_gather(NativeTrace& t, const core::Route& r, int operand,
                       uint8_t reg) {
  GatherPlan g;
  const int off = core::bus_offset(sim::Pipe::U, operand);
  // Register byte of the nearest earlier output byte that was copied, or -1
  // when that byte was zeroed (or there is none): a sign fill then reads 0.
  int prev = -1;
  for (int i = 0; i < core::kOperandBytes; ++i) {
    const uint8_t s = r.sel[static_cast<size_t>(off + i)];
    const uint64_t lane = uint64_t{0xFF} << (8 * i);
    if (s == core::Route::kZero) {
      prev = -1;
      continue;
    }
    if (s == core::Route::kSignExtend) {
      if (prev < 0) continue;
      g.src[static_cast<size_t>(i)] = static_cast<uint8_t>(prev);
      g.sign |= lane;
      continue;
    }
    const int byte = s == core::Route::kStraight ? mmx_reg(reg) * 8 + i : s;
    if (byte >= isa::kNumMmxRegs * 8) {
      throw std::logic_error("append_gather: selector " + std::to_string(s) +
                             " outside the register file");
    }
    g.src[static_cast<size_t>(i)] = static_cast<uint8_t>(byte);
    g.keep |= lane;
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
  Code code;
  const bool routed_op = gather_a != 0 || gather_b != 0;
  switch (in.op) {
#define SUBWORD_ALU_CASE(name, result)                       \
  case Op::name:                                             \
    code = routed_op ? Code::k##name##Routed : Code::k##name; \
    break;
    SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CASE)
#undef SUBWORD_ALU_CASE
    default:
      throw std::logic_error("append_alu: opcode has no ALU semantics");
  }
  if (gather_a > 0xFFFF || gather_b > 0xFFFF ||
      std::max(gather_a, gather_b) > t.gathers.size()) {
    throw std::logic_error("append_alu: gather index out of range");
  }
  push(t, code, mmx_reg(in.dst), mmx_reg(in.src),
       in.src_is_imm ? in.imm8 : 0, gather_a | gather_b << 16,
       in.src_is_imm ? NativeOp::kCountImm : 0);
}

}  // namespace subword::backend
