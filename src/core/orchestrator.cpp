#include "core/orchestrator.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/micro_builder.h"
#include "core/mmio.h"
#include "core/setup.h"
#include "isa/assembler.h"
#include "sim/pairing.h"

namespace subword::core {

using isa::Inst;
using isa::Op;

namespace {

void check_reserved_regs_free(const isa::Program& p) {
  const auto base = static_cast<uint8_t>(isa::kNumMmxRegs);
  const uint8_t r14 = base + kSpuBaseReg;
  const uint8_t r15 = base + kSpuScratchReg;
  for (const auto& in : p.insts()) {
    const auto rd = sim::regs_read(in);
    const auto wr = sim::regs_written(in);
    if (rd.contains(r14) || rd.contains(r15) || wr.contains(r14) ||
        wr.contains(r15)) {
      throw std::logic_error(
          "Orchestrator: program uses reserved SPU setup registers R14/R15");
    }
  }
}

// Build a vector of instructions using the Assembler convenience API.
template <typename Fn>
std::vector<Inst> build(Fn&& fn) {
  isa::Assembler a;
  fn(a);
  return std::move(a.take().insts());
}

std::atomic<uint64_t> g_orchestrator_runs{0};

}  // namespace

uint64_t Orchestrator::total_runs() {
  return g_orchestrator_runs.load(std::memory_order_relaxed);
}

OrchestrationResult Orchestrator::run(const isa::Program& p) const {
  g_orchestrator_runs.fetch_add(1, std::memory_order_relaxed);
  check_reserved_regs_free(p);

  OrchestrationResult res;
  const auto loops = find_inner_loops(p);
  const size_t n = p.size();
  std::vector<bool> removed(n, false);
  std::vector<int> go_before(n, -1);  // old head index -> context id
  // Per context, in id order: the MMIO word stream that programs it.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> context_words;

  // --- analyze loops and build microprograms -------------------------------
  std::vector<LoopAnalysis> chosen;
  for (const auto& loop : loops) {
    LoopReport rep;
    rep.head = loop.head;
    rep.body_len_before = static_cast<int>(loop.body_len());

    LoopAnalysis la = analyze_loop(p, loop, opts_.config);
    rep.candidate_permutations = la.candidate_count;
    rep.total_permutations = la.permutation_count;
    rep.trip_count = la.trip_count;
    if (!la.reject_reason.empty()) {
      rep.note = la.reject_reason;
      res.loops.push_back(rep);
      continue;
    }
    if (la.removable_count == 0 && !opts_.orchestrate_empty_loops) {
      rep.note = "no removable permutations";
      res.loops.push_back(rep);
      continue;
    }
    if (res.num_contexts >= opts_.max_contexts) {
      rep.note = "out of SPU contexts";
      res.loops.push_back(rep);
      continue;
    }

    // One SPU state per *kept* body instruction, in order.
    MicroBuilder mb(opts_.config);
    int kept = 0;
    for (size_t k = 0; k < loop.body_len(); ++k) {
      if (la.removable[k]) {
        removed[loop.head + k] = true;
        continue;
      }
      Route r;
      const auto& ir = la.routing[k];
      if (ir.a.routable && ir.a.def >= 0 &&
          la.removable[static_cast<size_t>(ir.a.def)]) {
        r.set_operand_both_pipes(0, ir.a.srcs);
      }
      if (ir.b.routable && ir.b.def >= 0 &&
          la.removable[static_cast<size_t>(ir.b.def)]) {
        r.set_operand_both_pipes(1, ir.b.srcs);
      }
      mb.add_state(r);
      ++kept;
    }
    mb.seal_simple_loop(static_cast<uint32_t>(la.trip_count));

    const int ctx = res.num_contexts++;
    context_words.push_back(mb.mmio_words());
    go_before[loop.head] = ctx;
    rep.context = ctx;
    rep.body_len_after = kept;
    rep.removed_permutations = la.removable_count;
    res.removed_static += la.removable_count;
    res.loops.push_back(rep);
    chosen.push_back(std::move(la));
  }

  if (res.num_contexts == 0) {
    res.program = p;  // nothing to do
    return res;
  }

  // --- prologue: program every context through the MMIO window -------------
  std::vector<Inst> out = build([&](isa::Assembler& a) {
    emit_spu_base(a, opts_.mmio_base);
    for (size_t c = 0; c < context_words.size(); ++c) {
      // Select context c (GO clear), then stream its words.
      emit_spu_stop(a, static_cast<int>(c));
      emit_spu_words(a, context_words[c]);
    }
  });
  res.prologue_instructions = static_cast<int>(out.size());

  // --- rewrite --------------------------------------------------------------
  std::vector<int32_t> new_index(n, -1);
  for (size_t i = 0; i < n; ++i) {
    if (go_before[i] >= 0) {
      const auto go = build([&](isa::Assembler& a) {
        emit_spu_go(a, go_before[i]);
      });
      res.go_instructions += static_cast<int>(go.size());
      out.insert(out.end(), go.begin(), go.end());
    }
    if (removed[i]) continue;
    new_index[i] = static_cast<int32_t>(out.size());
    out.push_back(p.at(i));
  }

  // Re-patch branch targets: a target that pointed at a removed instruction
  // moves to the next kept one.
  auto resolve = [&](int32_t old_target) -> int32_t {
    for (size_t j = static_cast<size_t>(old_target); j < n; ++j) {
      if (new_index[j] >= 0) return new_index[j];
    }
    throw std::logic_error("Orchestrator: branch target vanished");
  };
  for (size_t i = static_cast<size_t>(res.prologue_instructions);
       i < out.size(); ++i) {
    if (isa::is_branch_op(out[i].op) && out[i].target >= 0) {
      out[i].target = resolve(out[i].target);
    }
  }

  // Labels are dropped: indices moved and they are only used for listings.
  res.program = isa::Program(std::move(out), {});
  return res;
}

OrchestrationReport summarize(const OrchestrationResult& r) {
  OrchestrationReport rep;
  rep.removed_static = r.removed_static;
  rep.prologue_instructions = r.prologue_instructions;
  rep.go_instructions = r.go_instructions;
  rep.contexts_used = r.num_contexts;
  rep.loops_seen = static_cast<int>(r.loops.size());
  for (const auto& l : r.loops) {
    if (l.context < 0) continue;
    ++rep.loops_orchestrated;
    if (l.trip_count > 0) {
      rep.removed_dynamic +=
          static_cast<int64_t>(l.removed_permutations) * l.trip_count;
    }
  }
  return rep;
}

AttachedSpu attach_spu(sim::Machine& m, const OrchestrationResult& result,
                       const OrchestratorOptions& opts) {
  AttachedSpu att;
  att.spu = std::make_unique<Spu>(opts.config,
                                  std::max(1, result.num_contexts));
  att.mmio = std::make_unique<SpuMmio>(att.spu.get());
  m.memory().map_device(opts.mmio_base, SpuMmio::kWindowSize,
                        att.mmio.get());
  m.set_router(att.spu.get());
  return att;
}

}  // namespace subword::core
