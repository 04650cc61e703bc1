// Tests for the §6 crossbar extension: zero and sign-fill injection modes
// ("additional modes could be added to the SPU, like sign extension").
//
// The headline use case: widening packed bytes to words used to take an
// unpack-with-zero (unsigned) or unpack + arithmetic-shift pair (signed);
// with modes, a single routed instruction receives the widened operand.
#include <gtest/gtest.h>

#include "core/crossbar.h"
#include "core/micro_builder.h"
#include "core/mmio.h"
#include "core/setup.h"
#include "core/spu.h"
#include "isa/assembler.h"
#include "sim/exec.h"
#include "sim/machine.h"

using namespace subword::core;
using namespace subword::isa;
using subword::sim::MmxRegFile;
using subword::sim::Pipe;
using subword::swar::Vec64;

namespace {

const CrossbarConfig kModesA = with_modes(kConfigA);
const CrossbarConfig kModesD = with_modes(kConfigD);

}  // namespace

TEST(Modes, RequireCapability) {
  Route r;
  r.sel[0] = 0;
  r.sel[1] = Route::kZero;
  EXPECT_FALSE(route_valid(r, kConfigA));
  EXPECT_TRUE(route_valid(r, kModesA));
  EXPECT_NE(route_violation(r, kConfigA).find("mode"), std::string::npos);
}

TEST(Modes, ZeroInjection) {
  MmxRegFile regs;
  regs.write(0, Vec64{0x8877665544332211ull});
  // Widen low 4 bytes of MM0 to zero-extended words.
  Route r;
  std::array<uint8_t, 8> srcs{{0, Route::kZero, 1, Route::kZero, 2,
                               Route::kZero, 3, Route::kZero}};
  r.set_operand(Pipe::U, 0, srcs);
  ASSERT_TRUE(route_valid(r, kModesA));
  const auto out = apply_route(r, Pipe::U, 0, regs, Vec64{~0ull});
  EXPECT_EQ(out.bits(), 0x0044003300220011ull);
}

TEST(Modes, SignExtension) {
  MmxRegFile regs;
  regs.write(0, Vec64{0x00000000807F02F1ull});  // bytes F1 02 7F 80
  Route r;
  std::array<uint8_t, 8> srcs{{0, Route::kSignExtend, 1, Route::kSignExtend,
                               2, Route::kSignExtend, 3,
                               Route::kSignExtend}};
  r.set_operand(Pipe::U, 0, srcs);
  ASSERT_TRUE(route_valid(r, kModesA));
  const auto out = apply_route(r, Pipe::U, 0, regs, Vec64{});
  // Words: sext(F1)=FFF1, sext(02)=0002, sext(7F)=007F, sext(80)=FF80.
  EXPECT_EQ(out.lane<int16_t>(0), -15);
  EXPECT_EQ(out.lane<int16_t>(1), 2);
  EXPECT_EQ(out.lane<int16_t>(2), 127);
  EXPECT_EQ(out.lane<int16_t>(3), -128);
}

TEST(Modes, SignExtendChainsAcrossMultipleBytes) {
  MmxRegFile regs;
  regs.write(1, Vec64{0x00000000000000F0ull});
  // One byte widened to a full sign-extended dword.
  Route r;
  std::array<uint8_t, 8> srcs{{8, Route::kSignExtend, Route::kSignExtend,
                               Route::kSignExtend, Route::kZero,
                               Route::kZero, Route::kZero, Route::kZero}};
  r.set_operand(Pipe::U, 1, srcs);
  const auto out = apply_route(r, Pipe::U, 1, regs, Vec64{});
  EXPECT_EQ(out.lane<int32_t>(0), -16);
  EXPECT_EQ(out.lane<int32_t>(1), 0);
}

TEST(Modes, SignExtendAtOperandStartRejected) {
  Route r;
  r.sel[0] = Route::kSignExtend;  // no lower byte to take the sign from
  EXPECT_FALSE(route_valid(r, kModesA));
}

TEST(Modes, SixteenBitPortsAcceptWideningPairs) {
  // (routed byte, sign fill) and (routed byte, zero fill) make sense as
  // 16-bit output ports; arbitrary mode mixes do not.
  Route widen;
  widen.sel[0] = 4;
  widen.sel[1] = Route::kSignExtend;
  widen.sel[2] = 5;
  widen.sel[3] = Route::kZero;
  EXPECT_TRUE(route_valid(widen, kModesD));
  EXPECT_FALSE(route_valid(widen, kConfigD));  // no capability

  Route bad;
  bad.sel[0] = Route::kSignExtend;  // mode in the low byte
  bad.sel[1] = 4;
  EXPECT_FALSE(route_valid(bad, kModesD));
}

TEST(Modes, WideningReplacesUnpackShiftSequence) {
  // End-to-end: sign-extend packed bytes to words and add them, in one
  // routed PADDW — versus the classic 3-instruction MMX idiom
  // (movq copy, punpcklbw with self, psraw 8).
  Assembler a;
  a.li(R2, 0x1000);
  a.movq_load(MM0, R2, 0);   // packed signed bytes
  a.movq_load(MM1, R2, 8);   // word accumulators
  // Classic idiom for reference result in MM3:
  a.movq(MM2, MM0);
  a.punpcklbw(MM2, MM2);     // [b0 b0 b1 b1 ...] words with byte in high half
  a.psraw(MM2, 8);           // sign-extended words
  a.movq(MM3, MM1);
  a.paddw(MM3, MM2);
  a.halt();
  subword::sim::Machine m(a.take(), 1 << 16);
  m.memory().write64(0x1000, 0x00000000FE02807Full);
  m.memory().write64(0x1008, 0x0100010001000100ull);
  m.run();
  const auto classic = m.mmx().read(MM3);

  // Routed form: single paddw whose b-operand is the widened bytes.
  Spu spu(kModesA);
  MicroBuilder mb(kModesA);
  Route r;
  std::array<uint8_t, 8> srcs{{0, Route::kSignExtend, 1, Route::kSignExtend,
                               2, Route::kSignExtend, 3,
                               Route::kSignExtend}};
  r.set_operand_both_pipes(1, srcs);
  mb.add_state(r);
  mb.seal_simple_loop(1);
  spu.load_context(0, mb.program());
  spu.go();

  MmxRegFile regs;
  regs.write(0, Vec64{0x00000000FE02807Full});
  Inst padd;
  padd.op = Op::Paddw;
  padd.dst = MM3;
  padd.src = MM0;
  Vec64 va{0x0100010001000100ull};  // accumulator value
  Vec64 vb{};
  ASSERT_TRUE(spu.route(padd, Pipe::U, regs, &va, &vb));
  const auto routed = subword::sim::mmx_alu(Op::Paddw, va, vb);
  EXPECT_EQ(routed.bits(), classic.bits());
}

TEST(Modes, MicroBuilderAcceptsModesOnlyWithCapability) {
  Route r;
  r.sel[0] = Route::kZero;
  MicroBuilder plain(kConfigA);
  EXPECT_THROW(plain.add_state(r), std::logic_error);
  MicroBuilder extended(kModesA);
  EXPECT_NO_THROW(extended.add_state(r));
}

TEST(Modes, MmioRoundTripsModeSelectors) {
  Spu spu(kModesA);
  SpuMmio mmio(&spu);
  const uint32_t base = SpuMmio::kStateBase;
  mmio.write32(base + 4, 0xFDFE00FFu);  // straight, 0, zero, sign-extend
  const auto& st = spu.context(0).states[0];
  EXPECT_EQ(st.route.sel[0], Route::kStraight);
  EXPECT_EQ(st.route.sel[1], 0);
  EXPECT_EQ(st.route.sel[2], Route::kZero);
  EXPECT_EQ(st.route.sel[3], Route::kSignExtend);
  EXPECT_EQ(mmio.read32(base + 4), 0xFDFE00FFu);
}
