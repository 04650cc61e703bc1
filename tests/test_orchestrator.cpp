// Orchestrator tests: loop discovery, byte-provenance routing, permutation
// removal on the paper's own examples, and end-to-end equivalence.
#include <gtest/gtest.h>

#include "core/orchestrator.h"
#include "core/mmio.h"
#include "isa/assembler.h"
#include "ref/workload.h"
#include "sim/machine.h"

using namespace subword::core;
using namespace subword::isa;
using subword::sim::Machine;

namespace {

// The paper's Figure 5 dot-product loop: unpack both operand orders, then
// multiply high/low — the two unpacks are removable.
Program figure5_program(int iterations) {
  Assembler a;
  a.li(R1, iterations);
  a.li(R2, 0x1000);  // x pairs
  a.li(R3, 0x2000);  // y pairs
  a.li(R4, 0x3000);  // outputs
  a.label("loop");
  a.movq_load(MM0, R2, 0);   // [a b c d]
  a.movq_load(MM1, R3, 0);   // [e f g h]
  a.movq(MM2, MM0);
  a.punpckhwd(MM2, MM1);     // [a e b f] from the high halves
  a.movq(MM3, MM0);
  a.punpcklwd(MM3, MM1);     // [c g d h] from the low halves
  a.pmulhw(MM2, MM3);
  a.movq_store(R4, 0, MM2);
  a.saddi(R2, 8);
  a.saddi(R3, 8);
  a.saddi(R4, 8);
  a.loopnz(R1, "loop");
  a.halt();
  return a.take();
}

// Runs a program bare and orchestrated; returns true if all 64 output
// bytes match.
struct EquivalenceResult {
  bool equal = true;
  OrchestrationResult orch;
  subword::sim::RunStats base_stats, spu_stats;
};

EquivalenceResult check_equivalence(const Program& p,
                                    const OrchestratorOptions& opts,
                                    uint64_t out_addr, size_t out_bytes,
                                    uint64_t in_seed) {
  EquivalenceResult res;
  Orchestrator orch(opts);
  res.orch = orch.run(p);

  // Identical random memory images.
  auto fill = [&](Machine& m) {
    subword::ref::Rng rng(in_seed);
    for (uint64_t addr = 0x1000; addr < 0x4000; addr += 8) {
      m.memory().write64(addr, rng.next());
    }
  };

  Machine base(p, 1 << 16);
  fill(base);
  res.base_stats = base.run();

  Machine spu_m(res.orch.program, 1 << 16);
  auto att = attach_spu(spu_m, res.orch, opts);
  fill(spu_m);
  res.spu_stats = spu_m.run();

  for (uint64_t i = 0; i < out_bytes; ++i) {
    if (base.memory().read8(out_addr + i) !=
        spu_m.memory().read8(out_addr + i)) {
      res.equal = false;
      break;
    }
  }
  return res;
}

}  // namespace

TEST(LoopDiscovery, FindsSimpleInnerLoop) {
  const auto p = figure5_program(10);
  const auto loops = find_inner_loops(p);
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_EQ(loops[0].head, 4u);  // after the four li's
  EXPECT_EQ(p.at(loops[0].branch).op, Op::Loopnz);
}

TEST(LoopDiscovery, RejectsJumpIntoBody) {
  Assembler a;
  a.li(R1, 3);
  a.jmp("mid");
  a.label("loop");
  a.nop();
  a.label("mid");
  a.nop();
  a.loopnz(R1, "loop");
  a.halt();
  const auto p = a.take();
  EXPECT_TRUE(find_inner_loops(p).empty());
}

TEST(Analysis, Figure5UnpacksAreRemovable) {
  const auto p = figure5_program(10);
  const auto loops = find_inner_loops(p);
  ASSERT_EQ(loops.size(), 1u);
  const auto la = analyze_loop(p, loops[0], kConfigA);
  EXPECT_TRUE(la.reject_reason.empty());
  EXPECT_EQ(la.trip_count, 10);
  EXPECT_EQ(la.candidate_count, 4);  // 2 movq + 2 punpck
  EXPECT_EQ(la.removable_count, 4);
  // The pmulhw consumer has both operands routed.
  // Body index of pmulhw = 6 (loads at 0,1; permutes 2..5).
  EXPECT_TRUE(la.routing[6].a.routable);
  EXPECT_TRUE(la.routing[6].b.routable);
}

TEST(Analysis, LiveOutPermutationIsKept) {
  // The unpack result is stored to memory -> not removable.
  Assembler a;
  a.li(R1, 4);
  a.li(R2, 0x1000);
  a.label("loop");
  a.movq_load(MM0, R2, 0);
  a.movq_load(MM1, R2, 8);
  a.punpcklwd(MM0, MM1);
  a.movq_store(R2, 16, MM0);
  a.saddi(R2, 8);
  a.loopnz(R1, "loop");
  a.halt();
  const auto p = a.take();
  const auto loops = find_inner_loops(p);
  ASSERT_EQ(loops.size(), 1u);
  const auto la = analyze_loop(p, loops[0], kConfigA);
  EXPECT_EQ(la.removable_count, 0);
}

TEST(Analysis, LoopCarriedPermutationIsKept) {
  // MM2 is read at the top of the next iteration before being rewritten:
  // removing its producer would change semantics.
  Assembler a;
  a.li(R1, 4);
  a.li(R2, 0x1000);
  a.label("loop");
  a.paddw(MM4, MM2);       // upward-exposed read of MM2
  a.movq_load(MM0, R2, 0);
  a.movq(MM2, MM0);        // candidate, but loop-carried
  a.punpcklwd(MM2, MM0);
  a.paddw(MM5, MM2);
  a.saddi(R2, 8);
  a.loopnz(R1, "loop");
  a.halt();
  const auto p = a.take();
  const auto la = analyze_loop(p, find_inner_loops(p)[0], kConfigA);
  EXPECT_EQ(la.removable_count, 0);
}

TEST(Analysis, SourceOverwriteBlocksRouting) {
  // MM0 is reloaded between the unpack and its consumer: the unpacked
  // values no longer exist in the register file at consume time.
  Assembler a;
  a.li(R1, 4);
  a.li(R2, 0x1000);
  a.label("loop");
  a.movq_load(MM0, R2, 0);
  a.movq(MM2, MM0);          // copy of MM0's bytes
  a.movq_load(MM0, R2, 8);   // MM0 overwritten!
  a.paddw(MM3, MM2);         // consumer: must read the copy, not new MM0
  a.saddi(R2, 8);
  a.loopnz(R1, "loop");
  a.halt();
  const auto p = a.take();
  const auto la = analyze_loop(p, find_inner_loops(p)[0], kConfigA);
  EXPECT_EQ(la.removable_count, 0);
}

TEST(Analysis, ConfigGranularityLimitsRemoval) {
  // Byte-level interleave is routable on A (8-bit ports) but not on D
  // (16-bit ports).
  Assembler a;
  a.li(R1, 4);
  a.li(R2, 0x1000);
  a.label("loop");
  a.movq_load(MM0, R2, 0);
  a.movq_load(MM1, R2, 8);
  a.movq(MM2, MM0);
  a.punpcklbw(MM2, MM1);  // byte interleave
  a.paddb(MM3, MM2);
  a.movq_store(R2, 16, MM3);
  a.saddi(R2, 8);
  a.loopnz(R1, "loop");
  a.halt();
  const auto p = a.take();
  const auto loop = find_inner_loops(p)[0];
  EXPECT_EQ(analyze_loop(p, loop, kConfigA).removable_count, 2);
  EXPECT_EQ(analyze_loop(p, loop, kConfigD).removable_count, 0);
}

TEST(Orchestrator, Figure5EndToEnd) {
  OrchestratorOptions opts;
  const auto res = check_equivalence(figure5_program(16), opts, 0x3000,
                                     16 * 8, 0xAB);
  EXPECT_TRUE(res.equal);
  EXPECT_EQ(res.orch.removed_static, 4);
  // The transformed stream executes fewer instructions in steady state
  // (prologue amortizes over iterations).
  EXPECT_LT(res.spu_stats.mmx_permutation, res.base_stats.mmx_permutation);
}

TEST(Orchestrator, ReservedRegistersEnforced) {
  Assembler a;
  a.li(R14, 1);
  a.halt();
  Orchestrator orch;
  EXPECT_THROW((void)orch.run(a.take()), std::logic_error);
}

TEST(Orchestrator, UntouchedProgramWhenNothingRemovable) {
  Assembler a;
  a.li(R1, 4);
  a.label("loop");
  a.paddw(MM0, MM1);
  a.loopnz(R1, "loop");
  a.halt();
  const auto p = a.take();
  Orchestrator orch;
  const auto res = orch.run(p);
  EXPECT_FALSE(res.any_orchestrated());
  EXPECT_EQ(res.program.size(), p.size());
}

TEST(Orchestrator, JnzCounterIdiomSupported) {
  // The explicit ssubi/jnz loop form must orchestrate like loopnz: the
  // decrement is part of the body (and of the dynamic state count).
  Assembler a;
  a.li(R1, 9);
  a.li(R2, 0x1000);
  a.label("loop");
  a.movq_load(MM0, R2, 0);
  a.movq(MM2, MM0);
  a.punpcklwd(MM2, MM0);
  a.paddw(MM3, MM2);
  a.movq_store(R2, 8, MM3);
  a.saddi(R2, 16);
  a.ssubi(R1, 1);
  a.jnz(R1, "loop");
  a.halt();
  const auto p = a.take();
  const auto loops = find_inner_loops(p);
  ASSERT_EQ(loops.size(), 1u);
  const auto la = analyze_loop(p, loops[0], kConfigA);
  EXPECT_TRUE(la.reject_reason.empty()) << la.reject_reason;
  EXPECT_EQ(la.trip_count, 9);
  EXPECT_EQ(la.removable_count, 2);

  OrchestratorOptions opts;
  const auto res = check_equivalence(p, opts, 0x1008, 8, 0x31);
  EXPECT_TRUE(res.equal);
  EXPECT_EQ(res.orch.removed_static, 2);
}

TEST(Orchestrator, JnzWithIrregularDecrementRejected) {
  Assembler a;
  a.li(R1, 8);
  a.li(R2, 0x1000);
  a.label("loop");
  a.movq_load(MM0, R2, 0);
  a.movq(MM2, MM0);
  a.punpcklwd(MM2, MM0);
  a.paddw(MM3, MM2);
  a.ssubi(R1, 2);  // strides by two: dynamic count is not trips x length
  a.jnz(R1, "loop");
  a.halt();
  const auto p = a.take();
  const auto la = analyze_loop(p, find_inner_loops(p)[0], kConfigA);
  EXPECT_FALSE(la.reject_reason.empty());
}

TEST(Orchestrator, MultipleLoopsGetSeparateContexts) {
  // Two orchestratable inner loops in one program: each gets its own SPU
  // context, both programmed by one shared prologue, and the whole
  // program still computes the same memory image.
  Assembler a;
  // Loop 1: Figure-5 style multiply.
  a.li(R1, 6);
  a.li(R2, 0x1000);
  a.label("l1");
  a.movq_load(MM0, R2, 0);
  a.movq_load(MM1, R2, 8);
  a.movq(MM2, MM0);
  a.punpckhwd(MM2, MM1);
  a.pmulhw(MM2, MM1);
  a.movq_store(R2, 16, MM2);
  a.saddi(R2, 32);
  a.loopnz(R1, "l1");
  // Loop 2: byte interleave + add.
  a.li(R1, 5);
  a.li(R3, 0x2000);
  a.label("l2");
  a.movq_load(MM0, R3, 0);
  a.movq_load(MM1, R3, 8);
  a.movq(MM3, MM1);
  a.punpcklbw(MM3, MM0);
  a.paddb(MM4, MM3);
  a.movq_store(R3, 16, MM4);
  a.saddi(R3, 32);
  a.loopnz(R1, "l2");
  a.halt();
  const auto p = a.take();

  OrchestratorOptions opts;
  Orchestrator orch(opts);
  const auto res = orch.run(p);
  EXPECT_EQ(res.num_contexts, 2);
  int orchestrated = 0;
  for (const auto& l : res.loops) {
    if (l.context >= 0) ++orchestrated;
  }
  EXPECT_EQ(orchestrated, 2);
  EXPECT_EQ(res.removed_static, 4);  // two movq + two punpck

  // Semantics preserved end to end.
  auto fill = [&](Machine& m) {
    subword::ref::Rng rng(0x99);
    for (uint64_t addr = 0x1000; addr < 0x3000; addr += 8) {
      m.memory().write64(addr, rng.next());
    }
  };
  Machine base(p, 1 << 16);
  fill(base);
  base.run();
  Machine spu_m(res.program, 1 << 16);
  auto att = attach_spu(spu_m, res, opts);
  fill(spu_m);
  spu_m.run();
  for (uint64_t addr = 0x1000; addr < 0x3000; ++addr) {
    ASSERT_EQ(base.memory().read8(addr), spu_m.memory().read8(addr));
  }
}

TEST(Orchestrator, ContextLimitRespected) {
  // With max_contexts = 1, only the first loop is orchestrated; the
  // second is reported as out of contexts and left untouched.
  Assembler a;
  for (int l = 0; l < 2; ++l) {
    const std::string lbl = "loop" + std::to_string(l);
    a.li(R1, 4);
    a.li(R2, 0x1000 + 0x800 * l);
    a.label(lbl);
    a.movq_load(MM0, R2, 0);
    a.movq(MM2, MM0);
    a.punpcklwd(MM2, MM0);
    a.paddw(MM3, MM2);
    a.movq_store(R2, 8, MM3);
    a.saddi(R2, 16);
    a.loopnz(R1, lbl);
  }
  a.halt();
  OrchestratorOptions opts;
  opts.max_contexts = 1;
  Orchestrator orch(opts);
  const auto res = orch.run(a.take());
  ASSERT_EQ(res.loops.size(), 2u);
  EXPECT_GE(res.loops[0].context, 0);
  EXPECT_EQ(res.loops[1].context, -1);
  EXPECT_EQ(res.loops[1].note, "out of SPU contexts");
}

TEST(Orchestrator, BranchTargetsRepatchedAfterRemoval) {
  // Loop head is itself a removed permutation: the back-branch must
  // re-target the next kept instruction.
  Assembler a;
  a.li(R1, 4);
  a.li(R2, 0x1000);
  a.movq_load(MM0, R2, 0);
  a.movq_load(MM1, R2, 8);
  a.label("loop");
  a.movq(MM2, MM0);          // head, removable
  a.punpcklwd(MM2, MM1);
  a.paddw(MM3, MM2);
  a.movq_store(R2, 16, MM3);
  a.loopnz(R1, "loop");
  a.halt();
  OrchestratorOptions opts;
  const auto res = check_equivalence(a.take(), opts, 0x1010, 8, 0x17);
  EXPECT_TRUE(res.equal);
  EXPECT_EQ(res.orch.removed_static, 2);
}
