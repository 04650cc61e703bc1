#include "sim/machine.h"

#include <stdexcept>

#include "sim/exec.h"

namespace subword::sim {

using isa::ExecClass;
using isa::Inst;
using isa::Op;
using swar::Vec64;

namespace {
constexpr uint8_t kGpBase = isa::kNumMmxRegs;
}

Machine::Machine(isa::Program program, size_t mem_bytes, PipelineConfig cfg)
    : Machine(std::make_shared<const isa::Program>(std::move(program)),
              mem_bytes, cfg) {}

Machine::Machine(std::shared_ptr<const isa::Program> program,
                 size_t mem_bytes, PipelineConfig cfg)
    : prog_(std::move(program)),
      mem_(mem_bytes),
      cfg_(cfg),
      bpred_(cfg.bht_entries, cfg.bpred) {
  if (prog_ == nullptr || prog_->empty()) {
    throw std::invalid_argument("Machine: empty program");
  }
  decode();
}

void Machine::reset(isa::Program program, PipelineConfig cfg) {
  reset(std::make_shared<const isa::Program>(std::move(program)), cfg);
}

void Machine::reset(std::shared_ptr<const isa::Program> program,
                    PipelineConfig cfg) {
  if (program == nullptr || program->empty()) {
    throw std::invalid_argument("Machine: empty program");
  }
  prog_ = std::move(program);
  mem_.clear();
  mem_.unmap_device();
  if (cfg.bht_entries != cfg_.bht_entries || cfg.bpred != cfg_.bpred) {
    bpred_ = BranchPredictor(cfg.bht_entries, cfg.bpred);
  } else {
    bpred_.reset();
  }
  cfg_ = cfg;
  mmx_ = MmxRegFile{};
  gp_ = GpRegFile{};
  router_ = nullptr;
  trace_ = nullptr;
  stats_ = RunStats{};
  cycle_ = 0;
  pc_ = 0;
  halted_ = false;
  started_ = false;
  ready_.fill(0);
  decode();
}

void Machine::decode() {
  const std::vector<Inst>& insts = prog_->insts();
  decoded_.resize(insts.size());
  for (size_t i = 0; i < insts.size(); ++i) {
    const Inst& in = insts[i];
    const auto& info = isa::op_info(in.op);
    Decoded& d = decoded_[i];
    d.reads = regs_read(in);
    d.writes = regs_written(in);
    d.latency = info.latency;
    d.is_mmx = info.is_mmx;
    if (info.is_mmx) {
      if (info.is_permutation) {
        d.category = Category::MmxPermutation;
      } else if (info.cls == ExecClass::MmxLoad ||
                 info.cls == ExecClass::MmxStore) {
        d.category = Category::MmxMemory;
      } else {
        d.category = Category::MmxCompute;
      }
    } else {
      d.category = info.cls == ExecClass::Branch ? Category::Branch
                                                 : Category::Scalar;
    }
    d.pairs_with_next = i + 1 < insts.size() && can_pair(in, insts[i + 1]);
  }
}

bool Machine::operands_ready(const Decoded& d, uint64_t cycle) const {
  for (int i = 0; i < d.reads.count; ++i) {
    if (ready_[d.reads.ids[i]] > cycle) return false;
  }
  return true;
}

void Machine::account_category(const Decoded& d) {
  ++stats_.instructions;
  switch (d.category) {
    case Category::MmxCompute:
      ++stats_.mmx_instructions;
      ++stats_.mmx_compute;
      break;
    case Category::MmxPermutation:
      ++stats_.mmx_instructions;
      ++stats_.mmx_permutation;
      break;
    case Category::MmxMemory:
      ++stats_.mmx_instructions;
      ++stats_.mmx_memory;
      break;
    case Category::Scalar:
      ++stats_.scalar_instructions;
      break;
    case Category::Branch:
      ++stats_.scalar_instructions;
      ++stats_.branches;
      break;
  }
}

uint64_t Machine::execute(const Inst& in, const Decoded& d, Pipe pipe,
                          bool* was_branch, bool* mispredicted) {
  *was_branch = false;
  *mispredicted = false;
  uint64_t next = pc_ + (pipe == Pipe::U ? 1 : 2);
  // NOTE: `next` above is only a default — the caller advances pc; we return
  // the *target* pc for branches and pc+1 semantics otherwise via the
  // caller's bookkeeping. For non-branch ops the return value is ignored.

  if (d.is_mmx) {
    switch (in.op) {
      case Op::MovqLoad: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        mmx_.write(in.dst, Vec64{mem_.read64(addr)});
        ready_[in.dst] = cycle_ + d.latency;
        break;
      }
      case Op::MovqStore: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        mem_.write64(addr, mmx_.read(in.src).bits());
        break;
      }
      case Op::MovdLoad: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        mmx_.write(in.dst, Vec64{static_cast<uint64_t>(mem_.read32(addr))});
        ready_[in.dst] = cycle_ + d.latency;
        break;
      }
      case Op::MovdStore: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        mem_.write32(addr, static_cast<uint32_t>(mmx_.read(in.src).bits()));
        break;
      }
      case Op::MovdToMmx:
        mmx_.write(in.dst, Vec64{gp_.read(in.src) & 0xFFFFFFFFull});
        ready_[in.dst] = cycle_ + d.latency;
        break;
      case Op::MovdFromMmx:
        gp_.write(in.dst, mmx_.read(in.src).bits() & 0xFFFFFFFFull);
        ready_[kGpBase + in.dst] = cycle_ + d.latency;
        break;
      case Op::Emms:
        break;
      default: {
        // Two-operand data op; operands may be rerouted by the SPU.
        Vec64 a = mmx_.read(in.dst);
        Vec64 b = mmx_.read(in.src);
        if (router_ != nullptr && router_->active()) {
          if (router_->route(in, pipe, mmx_, &a, &b)) {
            ++stats_.spu_routed_ops;
          }
        }
        const uint64_t count = in.src_is_imm ? in.imm8 : b.bits();
        mmx_.write(in.dst, mmx_alu(in.op, a, b, count));
        ready_[in.dst] = cycle_ + d.latency;
        break;
      }
    }
  } else {
    switch (in.op) {
      case Op::Li:
        gp_.write(in.dst, static_cast<uint64_t>(static_cast<int64_t>(in.disp)));
        break;
      case Op::SMov:
        gp_.write(in.dst, gp_.read(in.src));
        break;
      case Op::SAdd:
        gp_.write(in.dst, gp_.read(in.dst) + gp_.read(in.src));
        break;
      case Op::SAddi:
        gp_.write(in.dst,
                  gp_.read(in.dst) + static_cast<int64_t>(in.disp));
        break;
      case Op::SSub:
        gp_.write(in.dst, gp_.read(in.dst) - gp_.read(in.src));
        break;
      case Op::SSubi:
        gp_.write(in.dst,
                  gp_.read(in.dst) - static_cast<int64_t>(in.disp));
        break;
      case Op::SMul:
        gp_.write(in.dst, gp_.read(in.dst) * gp_.read(in.src));
        break;
      case Op::SShli:
        gp_.write(in.dst, gp_.read(in.dst) << in.imm8);
        break;
      case Op::SShri:
        gp_.write(in.dst, gp_.read(in.dst) >> in.imm8);
        break;
      case Op::SSrai:
        gp_.write(in.dst, static_cast<uint64_t>(
                              static_cast<int64_t>(gp_.read(in.dst)) >>
                              in.imm8));
        break;
      case Op::SAnd:
        gp_.write(in.dst, gp_.read(in.dst) & gp_.read(in.src));
        break;
      case Op::SOr:
        gp_.write(in.dst, gp_.read(in.dst) | gp_.read(in.src));
        break;
      case Op::SXor:
        gp_.write(in.dst, gp_.read(in.dst) ^ gp_.read(in.src));
        break;
      case Op::SLoad16: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        gp_.write(in.dst, static_cast<uint64_t>(static_cast<int64_t>(
                              static_cast<int16_t>(mem_.read16(addr)))));
        break;
      }
      case Op::SLoad32: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        gp_.write(in.dst, static_cast<uint64_t>(static_cast<int64_t>(
                              static_cast<int32_t>(mem_.read32(addr)))));
        break;
      }
      case Op::SLoad64: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        gp_.write(in.dst, mem_.read64(addr));
        break;
      }
      case Op::SStore16: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        mem_.write16(addr, static_cast<uint16_t>(gp_.read(in.src)));
        break;
      }
      case Op::SStore32: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        if (mem_.in_device_window(addr)) ++stats_.spu_mmio_stores;
        mem_.write32(addr, static_cast<uint32_t>(gp_.read(in.src)));
        break;
      }
      case Op::SStore64: {
        const uint64_t addr = gp_.read(in.base) + static_cast<int64_t>(in.disp);
        mem_.write64(addr, gp_.read(in.src));
        break;
      }
      case Op::Jmp:
      case Op::Jnz:
      case Op::Jz:
      case Op::Loopnz: {
        *was_branch = true;
        bool taken = false;
        switch (in.op) {
          case Op::Jmp:
            taken = true;
            break;
          case Op::Jnz:
            taken = gp_.read(in.src) != 0;
            break;
          case Op::Jz:
            taken = gp_.read(in.src) == 0;
            break;
          case Op::Loopnz: {
            const uint64_t v = gp_.read(in.src) - 1;
            gp_.write(in.src, v);
            taken = v != 0;
            break;
          }
          default:
            break;
        }
        // The pc of this instruction (not the pair slot) indexes the BHT.
        const uint64_t bpc = pc_ + (pipe == Pipe::V ? 1 : 0);
        const bool correct = bpred_.update(bpc, taken);
        *mispredicted = !correct;
        next = taken ? static_cast<uint64_t>(in.target)
                     : bpc + 1;
        break;
      }
      case Op::Nop:
        break;
      case Op::Halt:
        halted_ = true;
        break;
      default:
        throw std::logic_error("Machine: unhandled opcode");
    }
    // Scalar writers become ready next cycle (latency from the table).
    for (int i = 0; i < d.writes.count; ++i) {
      if (d.writes.ids[i] >= kGpBase) {
        ready_[d.writes.ids[i]] = cycle_ + d.latency;
      }
    }
  }

  account_category(d);
  if (router_ != nullptr) router_->retire(in);
  if (trace_) {
    TraceEvent ev;
    ev.cycle = cycle_;
    ev.index = pc_ + (pipe == Pipe::V ? 1 : 0);
    ev.pipe = pipe;
    ev.mispredicted = *mispredicted;
    ev.inst = &in;
    trace_(ev);
  }
  return next;
}

const RunStats& Machine::run() {
  return run_for_instructions(~0ull);
}

const RunStats& Machine::run_for_instructions(uint64_t n) {
  if (!started_) {
    started_ = true;
    // Pipeline fill: one extra cycle when the SPU stage is present.
    cycle_ = cfg_.extra_spu_stage ? 1 : 0;
  }
  const int mispredict_penalty =
      cfg_.mispredict_penalty + (cfg_.extra_spu_stage ? 1 : 0);
  uint64_t retired = 0;
  const std::vector<Inst>& insts = prog_->insts();

  while (!halted_ && retired < n) {
    if (cycle_ >= cfg_.max_cycles) {
      throw std::runtime_error("Machine: cycle limit exceeded");
    }
    if (pc_ >= insts.size()) {
      throw std::runtime_error("Machine: pc ran off the program");
    }
    const Decoded& du = decoded_[pc_];
    if (!operands_ready(du, cycle_)) {
      ++stats_.stall_cycles;
      ++cycle_;
      continue;
    }

    bool u_branch = false, u_mispredict = false;
    const uint64_t u_next =
        execute(insts[pc_], du, Pipe::U, &u_branch, &u_mispredict);
    ++retired;
    bool issued_mmx = du.is_mmx;
    bool dual = false;
    bool v_branch = false, v_mispredict = false;
    uint64_t v_next = 0;

    // pairs_with_next is false for the last instruction, so pc_ + 1 is
    // in range whenever it is set.
    const bool u_diverts = u_branch || halted_;
    if (cfg_.dual_issue && !u_diverts && du.pairs_with_next && retired < n) {
      const Decoded& dv = decoded_[pc_ + 1];
      if (operands_ready(dv, cycle_)) {
        v_next =
            execute(insts[pc_ + 1], dv, Pipe::V, &v_branch, &v_mispredict);
        ++retired;
        dual = true;
        issued_mmx = issued_mmx || dv.is_mmx;
      }
    }

    ++stats_.issue_cycles;
    if (dual) ++stats_.dual_issue_cycles;
    if (issued_mmx) ++stats_.mmx_busy_cycles;
    ++cycle_;

    // Next pc and mispredict charge.
    if (u_branch) {
      pc_ = u_next;
      if (u_mispredict) {
        ++stats_.branch_mispredicts;
        cycle_ += static_cast<uint64_t>(mispredict_penalty);
      }
    } else if (dual && v_branch) {
      pc_ = v_next;
      if (v_mispredict) {
        ++stats_.branch_mispredicts;
        cycle_ += static_cast<uint64_t>(mispredict_penalty);
      }
    } else {
      pc_ += dual ? 2 : 1;
    }
    stats_.cycles = cycle_;
  }
  stats_.cycles = cycle_;
  return stats_;
}

}  // namespace subword::sim
