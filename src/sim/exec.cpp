#include "sim/exec.h"

#include <stdexcept>

namespace subword::sim {

namespace sw = swar::active;
using swar::Vec64;
using isa::Op;

bool has_alu_semantics(Op op) {
  switch (op) {
#define SUBWORD_ALU_CASE(name, result) case Op::name:
    SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CASE)
#undef SUBWORD_ALU_CASE
      return true;
    default:
      return false;
  }
}

Vec64 mmx_alu(Op op, Vec64 a, Vec64 b, uint64_t count) {
  switch (op) {
#define SUBWORD_ALU_CASE(name, result) \
  case Op::name:                       \
    return result;
    SUBWORD_MMX_ALU_OPS(SUBWORD_ALU_CASE)
#undef SUBWORD_ALU_CASE
    default:
      throw std::logic_error("mmx_alu: opcode has no ALU semantics");
  }
}

}  // namespace subword::sim
