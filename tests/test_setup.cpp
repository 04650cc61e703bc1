// Tests for the SPU setup-code emitters and the end-to-end programming
// path at the default (high) window address.
#include <gtest/gtest.h>

#include "core/micro_builder.h"
#include "core/mmio.h"
#include "core/setup.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "sim/machine.h"

using namespace subword;
using namespace subword::core;
using namespace subword::isa;

TEST(Setup, BaseRegisterLowAddress) {
  Assembler a;
  emit_spu_base(a, 0x1000);
  a.halt();
  sim::Machine m(a.take(), 1 << 12);
  m.run();
  EXPECT_EQ(m.gp().read(kSpuBaseReg), 0x1000u);
}

TEST(Setup, BaseRegisterHighAddressAssembledFromParts) {
  // 0xF0000000 does not fit a positive int32 immediate; the emitter
  // shifts it together.
  Assembler a;
  emit_spu_base(a, SpuMmio::kDefaultBase);
  a.halt();
  sim::Machine m(a.take(), 1 << 12);
  m.run();
  EXPECT_EQ(m.gp().read(kSpuBaseReg), SpuMmio::kDefaultBase);
}

TEST(Setup, WordsCostTwoInstructionsEach) {
  MicroBuilder mb(kConfigA);
  mb.add_straight_state();
  mb.seal_simple_loop(3);
  const auto words = mb.mmio_words();
  Assembler a;
  emit_spu_words(a, words);
  EXPECT_EQ(a.size(), setup_instruction_count(words.size()));
}

TEST(Setup, GoAndStopEncodeContextBits) {
  Assembler a;
  emit_spu_base(a, 0x1000);
  emit_spu_go(a, 3);
  emit_spu_stop(a, 3);
  a.halt();
  sim::Machine m(a.take(), 1 << 12);
  Spu spu(kConfigA, 4);
  // Context 3 needs a valid microprogram for GO to succeed.
  MicroBuilder mb(kConfigA);
  mb.add_straight_state();
  mb.seal_simple_loop(1);
  spu.load_context(3, mb.program());
  SpuMmio mmio(&spu);
  m.memory().map_device(0x1000, SpuMmio::kWindowSize, &mmio);
  m.set_router(&spu);
  m.run();
  // GO selected context 3 and activated; the stop write deactivated.
  EXPECT_EQ(spu.selected_context(), 3);
  EXPECT_FALSE(spu.active());
  EXPECT_EQ(spu.run_stats().activations, 1u);
}

TEST(Setup, StraightWordSkippingShrinksTheStream) {
  MicroBuilder mb(kConfigA);
  Route r;
  std::array<uint8_t, 8> srcs{{0, 1, 2, 3, 4, 5, 6, 7}};
  r.set_operand(sim::Pipe::U, 0, srcs);  // only 2 of 8 route words non-FF
  mb.add_state(r);
  mb.add_straight_state();
  mb.seal_simple_loop(1);
  const auto sparse = mb.mmio_words(false);
  const auto full = mb.mmio_words(true);
  EXPECT_LT(sparse.size(), full.size());
  // Full stream: 2 counters + per state (1 control + 8 route words).
  EXPECT_EQ(full.size(), 2u + 2u * 9u);
}

TEST(Disasm, EveryOpcodeRendersNonEmpty) {
  for (int i = 0; i < kOpCount; ++i) {
    Inst in;
    in.op = static_cast<Op>(i);
    in.dst = 1;
    in.src = 2;
    in.base = 3;
    in.disp = 4;
    in.target = 5;
    const auto text = disassemble(in);
    EXPECT_FALSE(text.empty()) << i;
    EXPECT_NE(text.find(op_info(in.op).name), std::string::npos) << i;
  }
}
