// exec.h — pure functional semantics of the MMX data operations.
//
// The machine gathers operand values (possibly via the SPU crossbar) and
// calls mmx_alu; keeping the semantics free of machine state makes every
// opcode unit-testable in isolation and lets the SPU substitute operands
// without special cases.
#pragma once

#include <cstdint>

#include "isa/opcodes.h"
#include "swar/swar.h"

// The one list of MMX data ops and their semantics. X(op, result) names
// an isa::Op and the expression computing its result from Vec64 `a` (the
// destination register's prior value), Vec64 `b` (the source operand) and
// uint64_t `count` (the shift count), with the host SWAR operations named
// through a `sw` alias of swar::active that the expansion site provides.
// sim::mmx_alu and the native backend's replay loop both expand it, so the
// two cannot drift apart.
#define SUBWORD_MMX_ALU_OPS(X)                         \
  X(MovqRR, b)                                         \
  X(Paddb, sw::add<uint8_t>(a, b))                     \
  X(Paddw, sw::add<uint16_t>(a, b))                    \
  X(Paddd, sw::add<uint32_t>(a, b))                    \
  X(Psubb, sw::sub<uint8_t>(a, b))                     \
  X(Psubw, sw::sub<uint16_t>(a, b))                    \
  X(Psubd, sw::sub<uint32_t>(a, b))                    \
  X(Paddsb, sw::add_sat<int8_t>(a, b))                 \
  X(Paddsw, sw::add_sat<int16_t>(a, b))                \
  X(Paddusb, sw::add_sat<uint8_t>(a, b))               \
  X(Paddusw, sw::add_sat<uint16_t>(a, b))              \
  X(Psubsb, sw::sub_sat<int8_t>(a, b))                 \
  X(Psubsw, sw::sub_sat<int16_t>(a, b))                \
  X(Psubusb, sw::sub_sat<uint8_t>(a, b))               \
  X(Psubusw, sw::sub_sat<uint16_t>(a, b))              \
  X(Pmullw, sw::mullo16(a, b))                         \
  X(Pmulhw, sw::mulhi16(a, b))                         \
  X(Pmaddwd, sw::maddwd(a, b))                         \
  X(Pcmpeqb, sw::cmpeq<uint8_t>(a, b))                 \
  X(Pcmpeqw, sw::cmpeq<uint16_t>(a, b))                \
  X(Pcmpeqd, sw::cmpeq<uint32_t>(a, b))                \
  X(Pcmpgtb, sw::cmpgt<int8_t>(a, b))                  \
  X(Pcmpgtw, sw::cmpgt<int16_t>(a, b))                 \
  X(Pcmpgtd, sw::cmpgt<int32_t>(a, b))                 \
  X(Pand, sw::and_(a, b))                              \
  X(Pandn, sw::andn(a, b))                             \
  X(Por, sw::or_(a, b))                                \
  X(Pxor, sw::xor_(a, b))                              \
  X(Psllw, sw::shl<uint16_t>(a, count))                \
  X(Pslld, sw::shl<uint32_t>(a, count))                \
  X(Psllq, sw::shl<uint64_t>(a, count))                \
  X(Psrlw, sw::shr_logical<uint16_t>(a, count))        \
  X(Psrld, sw::shr_logical<uint32_t>(a, count))        \
  X(Psrlq, sw::shr_logical<uint64_t>(a, count))        \
  X(Psraw, sw::shr_arith<int16_t>(a, count))           \
  X(Psrad, sw::shr_arith<int32_t>(a, count))           \
  X(Packsswb, sw::pack_sswb(a, b))                     \
  X(Packssdw, sw::pack_ssdw(a, b))                     \
  X(Packuswb, sw::pack_uswb(a, b))                     \
  X(Punpcklbw, sw::unpack_lo<uint8_t>(a, b))           \
  X(Punpcklwd, sw::unpack_lo<uint16_t>(a, b))          \
  X(Punpckldq, sw::unpack_lo<uint32_t>(a, b))          \
  X(Punpckhbw, sw::unpack_hi<uint8_t>(a, b))           \
  X(Punpckhwd, sw::unpack_hi<uint16_t>(a, b))          \
  X(Punpckhdq, sw::unpack_hi<uint32_t>(a, b))

namespace subword::sim {

// Computes the result of a two-operand MMX data instruction.
//   a     first operand (the destination register's prior value)
//   b     second operand (source register / loaded memory value)
//   count shift count (for shift ops; pre-resolved from imm8 or register)
// Throws std::logic_error for ops with no ALU semantics (loads/stores/emms).
[[nodiscard]] swar::Vec64 mmx_alu(isa::Op op, swar::Vec64 a, swar::Vec64 b,
                                  uint64_t count = 0);

// True if the op is handled by mmx_alu (pure register->register dataflow).
[[nodiscard]] bool has_alu_semantics(isa::Op op);

}  // namespace subword::sim
