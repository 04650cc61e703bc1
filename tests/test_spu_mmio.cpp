// Memory-mapped programming interface tests: register layout, write/read
// round trips, GO/stop semantics, and programming through simulated stores.
#include <gtest/gtest.h>

#include "core/micro_builder.h"
#include "core/mmio.h"
#include "core/setup.h"
#include "isa/assembler.h"
#include "sim/machine.h"

using namespace subword::core;
using namespace subword::isa;

TEST(SpuMmio, CounterRegisters) {
  Spu spu(kConfigA);
  SpuMmio mmio(&spu);
  mmio.write32(SpuMmio::kCntr0, 123);
  mmio.write32(SpuMmio::kCntr1, 456);
  EXPECT_EQ(spu.context(0).reload[0], 123u);
  EXPECT_EQ(spu.context(0).reload[1], 456u);
  EXPECT_EQ(mmio.read32(SpuMmio::kCntr0), 123u);
  EXPECT_EQ(mmio.read32(SpuMmio::kCntr1), 456u);
}

TEST(SpuMmio, StateControlWordRoundTrip) {
  Spu spu(kConfigA);
  SpuMmio mmio(&spu);
  const uint32_t base = SpuMmio::kStateBase + 3 * SpuMmio::kStateStride;
  const uint32_t word = 1u | (42u << 8) | (17u << 16);
  mmio.write32(base, word);
  const auto& st = spu.context(0).states[3];
  EXPECT_EQ(st.cntr_sel, 1);
  EXPECT_EQ(st.next0, 42);
  EXPECT_EQ(st.next1, 17);
  EXPECT_EQ(mmio.read32(base), word);
}

TEST(SpuMmio, RouteWordsAddressBusBytes) {
  Spu spu(kConfigA);
  SpuMmio mmio(&spu);
  const uint32_t base = SpuMmio::kStateBase + 0 * SpuMmio::kStateStride;
  // Route word 2 covers bus bytes 8..11 (U pipe src1 low half).
  mmio.write32(base + 4 + 4 * 2, 0x0B0A0908u);
  const auto& r = spu.context(0).states[0].route;
  EXPECT_EQ(r.sel[8], 0x08);
  EXPECT_EQ(r.sel[9], 0x09);
  EXPECT_EQ(r.sel[10], 0x0A);
  EXPECT_EQ(r.sel[11], 0x0B);
  EXPECT_EQ(mmio.read32(base + 4 + 4 * 2), 0x0B0A0908u);
}

TEST(SpuMmio, ConfigRegisterSelectsContextAndGo) {
  Spu spu(kConfigA, 4);
  SpuMmio mmio(&spu);
  // Program context 2 with a 1-state loop so GO succeeds.
  SpuProgram loop;
  loop.states[0].next1 = 0;
  loop.reload[0] = 5;
  spu.load_context(2, loop);

  mmio.write32(SpuMmio::kConfigReg, (2u << 1) | 1u);  // select 2 + GO
  EXPECT_EQ(spu.selected_context(), 2);
  EXPECT_TRUE(spu.active());
  EXPECT_TRUE(mmio.read32(SpuMmio::kConfigReg) & 1u);

  mmio.write32(SpuMmio::kConfigReg, 2u << 1);  // GO clear = stop
  EXPECT_FALSE(spu.active());
}

namespace {

// Writes `srcs` as the route of operand `operand` of `state`, both pipes,
// through the MMIO route words.
void write_operand_route(SpuMmio& mmio, int state, int operand,
                         const std::array<uint8_t, 8>& srcs) {
  Route r;
  r.set_operand_both_pipes(operand, srcs);
  const uint32_t base = SpuMmio::kStateBase +
                        static_cast<uint32_t>(state) * SpuMmio::kStateStride;
  for (int w = 0; w < static_cast<int>(SpuMmio::kRouteWords); ++w) {
    mmio.write32(base + 4 + 4 * static_cast<uint32_t>(w),
                 SpuMmio::encode_route_word(r, w));
  }
}

}  // namespace

TEST(SpuMmio, RouteWriteAfterGoIsRevalidated) {
  // A context that passed at one GO is checked again at the next GO once
  // a route word changed: an illegal route written through the registers
  // cannot slip past validation because an earlier GO succeeded.
  Spu spu(kConfigD);  // 16-bit ports, MM0..MM3 window
  SpuMmio mmio(&spu);
  write_operand_route(mmio, 0, 0, {{8, 9, 8, 9, 8, 9, 8, 9}});
  mmio.write32(SpuMmio::kStateBase, 0);  // state 0: next0 = next1 = 0
  mmio.write32(SpuMmio::kCntr0, 4);
  mmio.write32(SpuMmio::kConfigReg, 1u);  // GO
  EXPECT_TRUE(spu.active());
  mmio.write32(SpuMmio::kConfigReg, 0u);  // stop

  // MM7 lies outside configuration D's input window.
  write_operand_route(mmio, 0, 0, {{56, 57, 56, 57, 56, 57, 56, 57}});
  try {
    mmio.write32(SpuMmio::kConfigReg, 1u);
    ADD_FAILURE() << "GO accepted a route outside the input window";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(
                  "Spu::go: microprogram violates crossbar configuration: ", 0),
              0u)
        << e.what();
  }
  EXPECT_FALSE(spu.active());
}

TEST(SpuMmio, RewrittenRouteAppliesAtNextActivation) {
  Spu spu(kConfigA);
  SpuMmio mmio(&spu);
  subword::sim::MmxRegFile regs;
  regs.write(1, subword::swar::Vec64{0x11});
  regs.write(2, subword::swar::Vec64{0x22});
  Inst padd;
  padd.op = Op::Paddw;
  padd.dst = MM0;
  padd.src = MM3;

  mmio.write32(SpuMmio::kStateBase, 0);  // state 0 loops on itself
  mmio.write32(SpuMmio::kCntr0, 4);
  write_operand_route(mmio, 0, 1, {{8, 8, 8, 8, 8, 8, 8, 8}});  // MM1.b0
  mmio.write32(SpuMmio::kConfigReg, 1u);
  subword::swar::Vec64 a{}, b{};
  EXPECT_TRUE(spu.route(padd, subword::sim::Pipe::V, regs, &a, &b));
  EXPECT_EQ(b.bits(), 0x1111111111111111ull);
  mmio.write32(SpuMmio::kConfigReg, 0u);

  write_operand_route(mmio, 0, 1, {{16, 16, 16, 16, 16, 16, 16, 16}});
  mmio.write32(SpuMmio::kConfigReg, 1u);
  b = subword::swar::Vec64{};
  EXPECT_TRUE(spu.route(padd, subword::sim::Pipe::V, regs, &a, &b));
  EXPECT_EQ(b.bits(), 0x2222222222222222ull);
  mmio.write32(SpuMmio::kConfigReg, 0u);

  // Rewritten to straight: the state no longer routes at all.
  std::array<uint8_t, 8> straight{};
  straight.fill(Route::kStraight);
  write_operand_route(mmio, 0, 1, straight);
  mmio.write32(SpuMmio::kConfigReg, 1u);
  b = subword::swar::Vec64{7};
  EXPECT_FALSE(spu.route(padd, subword::sim::Pipe::V, regs, &a, &b));
  EXPECT_EQ(b.bits(), 7u);
}

TEST(SpuMmio, OutOfWindowAccessThrows) {
  Spu spu(kConfigA);
  SpuMmio mmio(&spu);
  EXPECT_THROW(mmio.write32(SpuMmio::kWindowSize + 4, 0), std::out_of_range);
  EXPECT_THROW(mmio.write32(SpuMmio::kStateBase + 2, 0), std::out_of_range);
}

TEST(SpuMmio, ProgrammingThroughSimulatedStores) {
  // The full path the kernels use: MicroBuilder -> emit_spu_words ->
  // machine stores -> MMIO -> controller state.
  MicroBuilder mb(kConfigA);
  Route r;
  std::array<uint8_t, 8> srcs{{8, 9, 10, 11, 12, 13, 14, 15}};  // MM1
  r.set_operand_both_pipes(1, srcs);
  mb.add_state(r);
  mb.add_straight_state();
  mb.seal_simple_loop(7);

  Assembler a;
  emit_spu_base(a, SpuMmio::kDefaultBase);
  emit_spu_stop(a, 0);
  emit_spu_words(a, mb.mmio_words());
  a.halt();

  subword::sim::Machine m(a.take(), 1 << 12);
  Spu spu(kConfigA);
  SpuMmio mmio(&spu);
  m.memory().map_device(SpuMmio::kDefaultBase, SpuMmio::kWindowSize, &mmio);
  m.run();

  EXPECT_GT(m.stats().spu_mmio_stores, 0u);
  const auto& prog = spu.context(0);
  EXPECT_EQ(prog.reload[0], 14u);
  EXPECT_EQ(prog.states[0].next1, 1);
  EXPECT_EQ(prog.states[1].next1, 0);
  EXPECT_EQ(prog.states[0].route.sel[8 + 3], 11);
  EXPECT_TRUE(prog.states[1].route.is_straight());
  EXPECT_FALSE(spu.active());
}

TEST(SpuMmio, GoStoreDoesNotConsumeAState) {
  // After a GO store retires, the controller must still be in state 0.
  MicroBuilder mb(kConfigA);
  mb.add_straight_state();
  mb.add_straight_state();
  mb.seal_simple_loop(10);

  Assembler a;
  emit_spu_base(a, SpuMmio::kDefaultBase);
  emit_spu_stop(a, 0);
  emit_spu_words(a, mb.mmio_words());
  emit_spu_go(a, 0);
  a.halt();  // halt retires while active -> consumes exactly one state

  subword::sim::Machine m(a.take(), 1 << 12);
  Spu spu(kConfigA);
  SpuMmio mmio(&spu);
  m.memory().map_device(SpuMmio::kDefaultBase, SpuMmio::kWindowSize, &mmio);
  m.set_router(&spu);
  m.run();

  EXPECT_TRUE(spu.active());
  EXPECT_EQ(spu.current_state(), 1);  // one step (halt), not two
  EXPECT_EQ(spu.counter(0), 19u);
}
