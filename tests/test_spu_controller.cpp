// Decoupled controller tests: the Figure 7 dot-product walkthrough, counter
// auto-reload, nested loops, IDLE semantics, contexts, exception stop.
#include <gtest/gtest.h>

#include "core/micro_builder.h"
#include "core/spu.h"
#include "isa/inst.h"

using namespace subword::core;
using namespace subword::isa;
using subword::sim::MmxRegFile;
using subword::sim::Pipe;
using subword::swar::Vec64;

namespace {

Inst nop_inst() {
  Inst in;
  in.op = Op::Nop;
  return in;
}

// Route that gathers byte `b` of register `r` into every output byte of
// operand `slot`.
Route broadcast_route(int slot, int reg, int byte) {
  Route r;
  std::array<uint8_t, 8> srcs{};
  srcs.fill(static_cast<uint8_t>(reg * 8 + byte));
  r.set_operand_both_pipes(slot, srcs);
  return r;
}

}  // namespace

TEST(SpuController, Figure7DotProductSchedule) {
  // Three states (two routed multiplies + straight jump), ten iterations:
  // CNTR0 = 30, NextState0 = IDLE everywhere, NextState1 chains 0->1->2->0.
  Spu spu(kConfigA);
  MicroBuilder mb(kConfigA);
  mb.add_state(broadcast_route(0, 1, 0));
  mb.add_state(broadcast_route(0, 2, 0));
  mb.add_straight_state();
  mb.seal_simple_loop(10);
  EXPECT_EQ(mb.program().reload[0], 30u);
  spu.load_context(0, mb.program());
  spu.go();

  EXPECT_TRUE(spu.active());
  EXPECT_EQ(spu.current_state(), 0);
  int steps = 0;
  while (spu.active()) {
    spu.retire(nop_inst());
    ++steps;
    ASSERT_LE(steps, 31);
  }
  // Exactly 30 dynamic instructions, then automatic IDLE.
  EXPECT_EQ(steps, 30);
  EXPECT_EQ(spu.current_state(), kIdleState);
  // Counter auto-restored to its programmed value.
  EXPECT_EQ(spu.counter(0), 30u);
  EXPECT_EQ(spu.run_stats().idles, 1u);
}

TEST(SpuController, StateSequenceAppliesRoutesInOrder) {
  Spu spu(kConfigA);
  MicroBuilder mb(kConfigA);
  mb.add_state(broadcast_route(1, 1, 0));  // state 0: operand b <- MM1.b0
  mb.add_state(broadcast_route(1, 2, 0));  // state 1: operand b <- MM2.b0
  mb.seal_simple_loop(1);
  spu.load_context(0, mb.program());
  spu.go();

  MmxRegFile regs;
  regs.write(1, Vec64{0x11});
  regs.write(2, Vec64{0x22});

  Inst padd;
  padd.op = Op::Paddw;
  padd.dst = MM0;
  padd.src = MM3;
  Vec64 a{}, b{};
  EXPECT_TRUE(spu.route(padd, Pipe::U, regs, &a, &b));
  EXPECT_EQ(b.bits(), 0x1111111111111111ull);
  spu.retire(padd);
  b = Vec64{};
  EXPECT_TRUE(spu.route(padd, Pipe::U, regs, &a, &b));
  EXPECT_EQ(b.bits(), 0x2222222222222222ull);
}

TEST(SpuController, InactiveRoutesNothing) {
  Spu spu(kConfigA);
  MmxRegFile regs;
  Inst padd;
  padd.op = Op::Paddw;
  Vec64 a{1}, b{2};
  EXPECT_FALSE(spu.route(padd, Pipe::U, regs, &a, &b));
  EXPECT_EQ(a.bits(), 1u);
  EXPECT_EQ(b.bits(), 2u);
}

TEST(SpuController, NestedLoopsWithTwoCounters) {
  // Inner: states 0,1 on CNTR0 (3 iterations => 6); outer: state 2 on
  // CNTR1. Structure per outer iteration: 6 inner steps + 1 outer step.
  // Two outer iterations => CNTR1 = 2.
  Spu spu(kConfigA);
  MicroBuilder mb(kConfigA);
  mb.add_straight_state(0);
  mb.add_straight_state(0);
  mb.add_straight_state(1);
  // Chain: 0 -> 1; 1 -> 0 until CNTR0 dies, then to 2; 2 -> 0 until CNTR1
  // dies, then IDLE.
  mb.set_next(0, /*next0=*/1, /*next1=*/1);
  mb.set_next(1, /*next0=*/2, /*next1=*/0);
  mb.set_next(2, /*next0=*/kIdleState, /*next1=*/0);
  mb.set_cntr_reload(0, 6);
  mb.set_cntr_reload(1, 2);
  spu.load_context(0, mb.program());
  spu.go();

  std::vector<uint8_t> visited;
  int guard = 0;
  while (spu.active() && guard++ < 100) {
    visited.push_back(spu.current_state());
    spu.retire(nop_inst());
  }
  // Expected: (0 1)x3 2 (0 1)x3 2 -> idle. 14 steps total.
  const std::vector<uint8_t> want = {0, 1, 0, 1, 0, 1, 2,
                                     0, 1, 0, 1, 0, 1, 2};
  EXPECT_EQ(visited, want);
  EXPECT_FALSE(spu.active());
  // Both counters restored for the next activation (zero-overhead reuse).
  EXPECT_EQ(spu.counter(0), 6u);
  EXPECT_EQ(spu.counter(1), 2u);
}

TEST(SpuController, ReactivationIsZeroOverhead) {
  Spu spu(kConfigA);
  MicroBuilder mb(kConfigA);
  mb.add_straight_state();
  mb.seal_simple_loop(3);
  spu.load_context(0, mb.program());
  for (int round = 0; round < 4; ++round) {
    spu.go();
    int steps = 0;
    while (spu.active()) {
      spu.retire(nop_inst());
      ++steps;
      ASSERT_LE(steps, 4);
    }
    EXPECT_EQ(steps, 3) << "round " << round;
  }
  EXPECT_EQ(spu.run_stats().activations, 4u);
}

TEST(SpuController, ContextsAreIndependent) {
  Spu spu(kConfigA, /*num_contexts=*/2);
  MicroBuilder mb0(kConfigA);
  mb0.add_straight_state();
  mb0.seal_simple_loop(2);
  MicroBuilder mb1(kConfigA);
  mb1.add_straight_state();
  mb1.add_straight_state();
  mb1.seal_simple_loop(5);
  spu.load_context(0, mb0.program());
  spu.load_context(1, mb1.program());

  spu.select_context(1);
  spu.go();
  int steps = 0;
  while (spu.active()) {
    spu.retire(nop_inst());
    ++steps;
    ASSERT_LE(steps, 11);
  }
  EXPECT_EQ(steps, 10);

  spu.select_context(0);
  spu.go();
  steps = 0;
  while (spu.active()) {
    spu.retire(nop_inst());
    ++steps;
    ASSERT_LE(steps, 3);
  }
  EXPECT_EQ(steps, 2);
}

TEST(SpuController, StopDisablesImmediately) {
  Spu spu(kConfigA);
  MicroBuilder mb(kConfigA);
  mb.add_straight_state();
  mb.seal_simple_loop(100);
  spu.load_context(0, mb.program());
  spu.go();
  spu.retire(nop_inst());
  EXPECT_TRUE(spu.active());
  spu.stop();  // the exception-handler path of §4
  EXPECT_FALSE(spu.active());
  EXPECT_EQ(spu.counter(0), 100u);  // reloaded
}

TEST(SpuController, ActivationSkipSuppressesOneStep) {
  Spu spu(kConfigA);
  MicroBuilder mb(kConfigA);
  mb.add_straight_state();
  mb.seal_simple_loop(2);
  spu.load_context(0, mb.program());
  spu.go();
  spu.arm_activation_skip();
  spu.retire(nop_inst());  // the GO store itself: no transition
  EXPECT_EQ(spu.counter(0), 2u);
  spu.retire(nop_inst());
  EXPECT_EQ(spu.counter(0), 1u);
}

TEST(SpuController, GoValidatesRoutesAgainstConfig) {
  Spu spu(kConfigD);  // 16-bit ports, MM0..MM3 window
  MicroBuilder mb(kConfigA);
  mb.add_state(broadcast_route(0, 7, 3));  // byte 59: outside D's window
  mb.seal_simple_loop(1);
  spu.load_context(0, mb.program());
  EXPECT_THROW(spu.go(), std::logic_error);
}

TEST(SpuController, LoadContextRevalidatesAtNextGo) {
  // A context that passed validation is checked again once it is
  // replaced: a legal program activates, an illegal one loaded over it
  // makes the next GO throw, and a legal one restores activation.
  Spu spu(kConfigD);
  Route legal;
  legal.set_operand_both_pipes(0, {{8, 9, 8, 9, 8, 9, 8, 9}});  // MM1.w0
  MicroBuilder good(kConfigD);
  good.add_state(legal);
  good.seal_simple_loop(1);
  MicroBuilder bad(kConfigA);
  bad.add_state(broadcast_route(0, 7, 3));  // byte 59: outside D's window
  bad.seal_simple_loop(1);

  spu.load_context(0, good.program());
  spu.go();
  spu.stop();
  spu.go();  // unchanged since it passed: activates again
  spu.stop();
  spu.load_context(0, bad.program());
  EXPECT_THROW(spu.go(), std::logic_error);
  EXPECT_FALSE(spu.active());
  spu.load_context(0, good.program());
  spu.go();
  EXPECT_TRUE(spu.active());
}

TEST(MicroBuilder, StateExhaustionThrows) {
  MicroBuilder mb(kConfigA);
  for (int i = 0; i < kNumStates - 1; ++i) mb.add_straight_state();
  EXPECT_THROW(mb.add_straight_state(), std::logic_error);
}

TEST(SpuProgram, ReachableStatesCountsLoop) {
  MicroBuilder mb(kConfigA);
  for (int i = 0; i < 5; ++i) mb.add_straight_state();
  mb.seal_simple_loop(2);
  EXPECT_EQ(mb.program().reachable_states(), 5);
}
