#include "core/spu.h"

#include <stdexcept>

namespace subword::core {

namespace {

// Bit 2*pipe+operand of the result is set when that operand slice of the
// route has at least one routed byte.
uint8_t routed_slices(const Route& r) {
  uint8_t bits = 0;
  for (const sim::Pipe pipe : {sim::Pipe::U, sim::Pipe::V}) {
    for (int operand = 0; operand < 2; ++operand) {
      if (r.routes_operand(pipe, operand)) {
        bits |= static_cast<uint8_t>(1u << (2 * static_cast<int>(pipe) +
                                            operand));
      }
    }
  }
  return bits;
}

}  // namespace

Spu::Spu(CrossbarConfig cfg, int num_contexts) : cfg_(cfg) {
  if (num_contexts < 1) {
    throw std::invalid_argument("Spu: need at least one context");
  }
  contexts_.resize(static_cast<size_t>(num_contexts));
  facts_.resize(static_cast<size_t>(num_contexts));
}

void Spu::load_context(int i, const SpuProgram& prog) {
  contexts_.at(static_cast<size_t>(i)) = prog;
  ContextFacts& f = facts_[static_cast<size_t>(i)];
  f.validated = false;
  for (int s = 0; s < kNumStates; ++s) {
    f.routed[static_cast<size_t>(s)] =
        routed_slices(prog.states[static_cast<size_t>(s)].route);
  }
}

void Spu::set_state(int i, int state, const SpuState& st) {
  auto& states = contexts_.at(static_cast<size_t>(i)).states;
  states.at(static_cast<size_t>(state)) = st;
  ContextFacts& f = facts_[static_cast<size_t>(i)];
  f.validated = false;
  f.routed[static_cast<size_t>(state)] = routed_slices(st.route);
}

void Spu::set_reload(int i, int counter, uint32_t value) {
  contexts_.at(static_cast<size_t>(i)).reload.at(static_cast<size_t>(counter)) =
      value;
}

void Spu::select_context(int i) {
  if (i < 0 || i >= num_contexts()) {
    throw std::out_of_range("Spu: context index out of range");
  }
  cur_context_ = i;
}

void Spu::go() {
  const auto& prog = contexts_[static_cast<size_t>(cur_context_)];
  ContextFacts& f = facts_[static_cast<size_t>(cur_context_)];
  if (!f.validated) {
    const auto v = prog.violation(cfg_);
    if (!v.empty()) {
      throw std::logic_error("Spu::go: microprogram violates crossbar "
                             "configuration: " + v);
    }
    f.validated = true;
  }
  go_ = true;
  cur_state_ = 0;
  for (int i = 0; i < kNumCounters; ++i) {
    counter_[static_cast<size_t>(i)] = prog.reload[static_cast<size_t>(i)];
  }
  ++stats_.activations;
}

void Spu::stop() {
  go_ = false;
  cur_state_ = kIdleState;
  const auto& prog = contexts_[static_cast<size_t>(cur_context_)];
  for (int i = 0; i < kNumCounters; ++i) {
    counter_[static_cast<size_t>(i)] = prog.reload[static_cast<size_t>(i)];
  }
}

bool Spu::route(const isa::Inst& /*in*/, sim::Pipe pipe,
                const sim::MmxRegFile& regs, swar::Vec64* a,
                swar::Vec64* b) {
  if (!go_) return false;
  const auto c = static_cast<size_t>(cur_context_);
  const unsigned slices =
      facts_[c].routed[cur_state_] >> (2 * static_cast<int>(pipe));
  if ((slices & 3u) == 0) return false;
  const Route& route = contexts_[c].states[cur_state_].route;
  if ((slices & 1u) != 0) {
    *a = apply_route(route, pipe, 0, regs, *a);
    ++stats_.routed_operands;
  }
  if ((slices & 2u) != 0) {
    *b = apply_route(route, pipe, 1, regs, *b);
    ++stats_.routed_operands;
  }
  return true;
}

void Spu::retire(const isa::Inst& /*in*/) {
  if (!go_) return;
  if (skip_next_retire_) {
    // The store that set GO retires after activation; it is not part of
    // the loop the microprogram describes.
    skip_next_retire_ = false;
    return;
  }
  auto& prog = contexts_[static_cast<size_t>(cur_context_)];
  const auto& st = prog.states[cur_state_];
  ++stats_.steps;

  uint32_t& cnt = counter_[st.cntr_sel];
  if (cnt > 0) --cnt;
  const bool exhausted = (cnt == 0);
  if (exhausted) {
    // "The SPU automatically restores the CNTR value to its original
    // programmed state after reaching zero" — this is what makes nested
    // loops zero-overhead: the inner counter is ready again by the time
    // the outer loop re-enters the inner states.
    cnt = prog.reload[st.cntr_sel];
  }
  const uint8_t next = exhausted ? st.next0 : st.next1;
  if (next == kIdleState) {
    go_ = false;
    cur_state_ = kIdleState;
    for (int i = 0; i < kNumCounters; ++i) {
      counter_[static_cast<size_t>(i)] = prog.reload[static_cast<size_t>(i)];
    }
    ++stats_.idles;
  } else {
    cur_state_ = next;
  }
}

}  // namespace subword::core
